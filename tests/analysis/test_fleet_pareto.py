"""Fleet and Pareto analysis tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.fleet import (
    TrainingJob,
    architecture_to_workload,
    summarize_fleet,
    synthesize_fleet,
)
from repro.analysis.pareto import (
    FIGURE4_DATASET,
    ModelQualityPoint,
    best_architecture_at_size,
    pareto_frontier,
    quality_per_parameter,
)
from repro.models.base import ModelArchitecture


class TestFleet:
    def test_deterministic_given_seed(self):
        assert synthesize_fleet(seed=7) == synthesize_fleet(seed=7)

    def test_different_seeds_differ(self):
        assert synthesize_fleet(seed=1) != synthesize_fleet(seed=2)

    def test_summary_ratios_match_paper_band(self):
        summary = summarize_fleet(synthesize_fleet())
        assert 8.0 <= summary.gpus_per_param_ratio <= 22.0
        assert 1.2 <= summary.memory_utilization_ratio <= 1.6

    def test_job_validation(self):
        with pytest.raises(ValueError):
            TrainingJob("j", "llm", 0, 8, 0.5, 1.0)
        with pytest.raises(ValueError):
            TrainingJob("j", "llm", 1e9, 8, 1.5, 1.0)

    def test_needs_both_workload_kinds(self):
        jobs = [
            TrainingJob("j", "llm", 1e9, 8, 0.5, 1.0)
        ]
        with pytest.raises(ValueError):
            summarize_fleet(jobs)

    def test_minimum_fleet_size(self):
        with pytest.raises(ValueError):
            synthesize_fleet(num_jobs=2)

    def test_architecture_mapping(self):
        assert architecture_to_workload(ModelArchitecture.LLM) == "llm"
        assert architecture_to_workload(
            ModelArchitecture.TTV_DIFFUSION
        ) == "ttv"
        assert architecture_to_workload(
            ModelArchitecture.DIFFUSION_LATENT
        ) == "tti"


class TestPareto:
    def test_dominated_point_excluded(self):
        points = [
            ModelQualityPoint("good", 5.0, 1e9, "diffusion"),
            ModelQualityPoint("bad", 10.0, 2e9, "diffusion"),
        ]
        frontier = pareto_frontier(points)
        assert [p.name for p in frontier] == ["good"]

    def test_incomparable_points_both_kept(self):
        points = [
            ModelQualityPoint("small", 10.0, 1e9, "diffusion"),
            ModelQualityPoint("accurate", 5.0, 10e9, "transformer"),
        ]
        assert len(pareto_frontier(points)) == 2

    def test_figure4_frontier_contains_highlights(self):
        names = {p.name for p in pareto_frontier(FIGURE4_DATASET)}
        assert {"Imagen", "StableDiffusion", "Parti"} <= names

    def test_frontier_sorted_by_parameters(self):
        frontier = pareto_frontier(FIGURE4_DATASET)
        params = [p.parameters for p in frontier]
        assert params == sorted(params)

    def test_best_under_budget(self):
        best = best_architecture_at_size(FIGURE4_DATASET, 2e9)
        assert best.parameters <= 2e9

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError):
            best_architecture_at_size(FIGURE4_DATASET, 1e6)

    def test_quality_per_parameter_prefers_small_accurate(self):
        small = ModelQualityPoint("s", 10.0, 1e9, "diffusion")
        big = ModelQualityPoint("b", 10.0, 10e9, "transformer")
        assert quality_per_parameter(small) > quality_per_parameter(big)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            ModelQualityPoint("x", 0.0, 1e9, "diffusion")

    @given(
        fids=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=12),
        params=st.lists(st.floats(0.1e9, 50e9), min_size=2, max_size=12),
    )
    def test_frontier_points_never_dominated(self, fids, params):
        count = min(len(fids), len(params))
        points = [
            ModelQualityPoint(f"m{i}", fids[i], params[i], "diffusion")
            for i in range(count)
        ]
        frontier = pareto_frontier(points)
        assert frontier  # never empty
        for candidate in frontier:
            assert not any(
                other.fid <= candidate.fid
                and other.parameters <= candidate.parameters
                and (other.fid < candidate.fid
                     or other.parameters < candidate.parameters)
                for other in points
            )
