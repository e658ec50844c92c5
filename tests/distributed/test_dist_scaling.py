"""Scaling sweeps and distributed timelines on real model traces."""

import pytest

from repro.distributed.partition import TensorParallel, strategy_from_name
from repro.distributed.registry import machine_from_name
from repro.distributed.scaling import (
    scaling_table,
    strong_scaling,
    weak_scaling,
)
from repro.distributed.timeline import TimelineEntry, build_timelines
from repro.kernels.estimator import DEFAULT_TUNING
from repro.models.registry import build_model
from repro.profiler import profile_model, profile_sharded
from tests.distributed.plan_reference import (
    reference_events,
    reference_timelines,
)
from tests.distributed.test_partition import transformer_trace

WORLDS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def sd_points():
    model = build_model("stable_diffusion@256")
    return strong_scaling(model, "dgx-a100-80g", WORLDS)


class TestStrongScaling:
    def test_baseline_point_is_identity(self, sd_points):
        assert sd_points[0].world == 1
        assert sd_points[0].speedup == pytest.approx(1.0)
        assert sd_points[0].efficiency == pytest.approx(1.0)
        assert sd_points[0].comm_time_s == 0.0

    def test_tp_efficiency_monotonically_decreasing(self, sd_points):
        # Regression guard: collectives and shrinking per-rank work must
        # make each added GPU strictly less useful than the last.
        efficiencies = [point.efficiency for point in sd_points]
        assert all(
            earlier > later
            for earlier, later in zip(efficiencies, efficiencies[1:])
        ), efficiencies

    def test_comm_share_grows_with_world(self, sd_points):
        fractions = [point.comm_fraction for point in sd_points[1:]]
        assert all(
            earlier < later
            for earlier, later in zip(fractions, fractions[1:])
        ), fractions

    def test_table_renders_every_world(self, sd_points):
        table = scaling_table(sd_points, title="sweep")
        assert "sweep" in table
        for world in WORLDS:
            assert any(
                line.startswith(str(world)) for line in table.splitlines()
            )

    def test_invalid_worlds_rejected(self):
        with pytest.raises(ValueError):
            strong_scaling(
                build_model("stable_diffusion@256"), "dgx-a100-80g", ()
            )


class TestWeakScaling:
    def test_dp_efficiency_near_flat(self):
        model = build_model("stable_diffusion@256")
        points = weak_scaling(model, "dgx-a100-80g", (1, 2))
        # Each replica runs the identical per-sample trace; modelled DP
        # inference has no gradient sync, so efficiency stays at 1.
        assert points[1].efficiency == pytest.approx(1.0, rel=1e-6)


class TestTimelines:
    def test_entry_is_a_positional_tuple(self):
        entry = TimelineEntry("comm", "all_reduce", 1.5, 0.25)
        assert tuple(entry) == ("comm", "all_reduce", 1.5, 0.25)
        assert entry == TimelineEntry(
            kind="comm", label="all_reduce", start_s=1.5, duration_s=0.25
        )
        assert entry.end_s == 1.75
        with pytest.raises(AttributeError):
            entry.start_s = 0.0

    def test_overlap_hides_communication(self):
        model = build_model("stable_diffusion@256")
        machine = machine_from_name("dgx-a100-80g")
        exposed = profile_sharded(
            model, machine=machine, world=4, overlap=0.0,
            keep_entries=False,
        )
        hidden = profile_sharded(
            model, machine=machine, world=4, overlap=1.0,
            keep_entries=False,
        )
        assert hidden.total_time_s < exposed.total_time_s
        assert hidden.timelines.exposed_comm_time_s == pytest.approx(0.0)

    def test_ranks_synchronize_at_collectives(self):
        model = build_model("stable_diffusion@256")
        machine = machine_from_name("dgx-a100-80g")
        result = profile_sharded(
            model, machine=machine, world=2, keep_entries=False
        )
        ends = [timeline.end_s for timeline in result.timelines.timelines]
        assert ends[0] == pytest.approx(ends[1], rel=1e-9)

    def test_pipeline_world_matches_stage_count(self):
        model = build_model("stable_diffusion@256")
        machine = machine_from_name("dgx-a100-80g")
        plan = TensorParallel(2).partition(
            profile_sharded(
                model, machine=machine, world=1, keep_entries=False
            ).source_trace
        )
        dist = build_timelines(
            plan, machine, tuning=DEFAULT_TUNING, keep_entries=False
        )
        assert len(dist.timelines) == 2


def rank_totals(dist):
    return [
        (t.compute_time_s, t.comm_time_s, t.exposed_comm_time_s, t.end_s)
        for t in dist.timelines
    ]


class TestEntriesAreInert:
    """Recording timeline entries must not change one float."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("name", ["stable_diffusion@256", "llama"])
    def test_totals_equal_with_and_without_entries(self, name, batch):
        machine = machine_from_name("dgx-a100-80g")
        trace = profile_model(
            build_model(name), gpu=machine.gpu, batch=batch
        ).trace
        for strategy, world in (("tp", 2), ("tp", 8), ("dp", 4)):
            plan = strategy_from_name(
                strategy, world, batch=batch
            ).partition(trace)
            for overlap in (0.0, 0.5):
                kept = build_timelines(plan, machine, overlap=overlap)
                bare = build_timelines(
                    plan, machine, overlap=overlap, keep_entries=False
                )
                case = (strategy, world, overlap)
                assert rank_totals(kept) == rank_totals(bare), case
                assert any(t.entries for t in kept.timelines), case
                assert not any(t.entries for t in bare.timelines), case


class TestAcrossNodes:
    """Plans wider than one node price like the per-event reference.

    A 16-rank collective runs over the network link.
    """

    def test_sixteen_ranks_match_reference(self):
        machine = machine_from_name("dgx-a100-80g")
        trace = transformer_trace(blocks=2)
        chosen = strategy_from_name("tp", 16)
        plan = chosen.partition(trace)
        reference = reference_timelines(
            chosen, reference_events(chosen, trace), machine
        )
        dist = build_timelines(plan, machine, keep_entries=False)
        assert rank_totals(dist) == rank_totals(reference)
        assert dist.comm_time_s > 0.0
