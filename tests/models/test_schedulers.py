"""Diffusion-schedule tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.schedulers import (
    DiffusionSchedule,
    cosine_schedule,
    linear_schedule,
    steps_latency_tradeoff,
)
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.profiler import profile_model


def sd_profile(steps: int):
    """Stable Diffusion at 256 px, profiled at ``steps`` denoising steps."""
    config = StableDiffusionConfig().at_image_size(256)
    model = StableDiffusion(replace(config, denoising_steps=steps))
    return profile_model(model)


def step_time_s(trace, step: int) -> float:
    """Time of the events denoising step ``step``'s module subtree emitted."""
    prefix = f"denoise_{step}"
    return trace.filter(
        lambda event: event.module_path == prefix
        or event.module_path.startswith(prefix + ".")
    ).total_time_s


def profiled_step_split(steps: int) -> tuple[float, float]:
    """(one UNet pass, everything else) of a ``steps``-step profile."""
    trace = sd_profile(steps).trace
    step_s = step_time_s(trace, 0)
    return step_s, trace.total_time_s - steps * step_s


class TestSchedules:
    def test_linear_endpoints(self):
        schedule = linear_schedule(1000, 1e-4, 2e-2)
        assert schedule.betas[0] == pytest.approx(1e-4)
        assert schedule.betas[-1] == pytest.approx(2e-2)

    def test_alphas_cumprod_decreasing(self):
        for schedule in (linear_schedule(), cosine_schedule()):
            cumprod = schedule.alphas_cumprod
            assert np.all(np.diff(cumprod) < 0)
            assert 0.0 < cumprod[-1] < cumprod[0] < 1.0

    def test_terminal_signal_near_zero(self):
        assert linear_schedule().terminal_signal() < 0.05
        assert cosine_schedule().terminal_signal() < 0.05

    def test_snr_decreasing(self):
        snr = linear_schedule().signal_to_noise()
        assert np.all(np.diff(snr) < 0)

    def test_cosine_is_gentler_early(self):
        """The cosine schedule preserves more signal at mid-trajectory
        (its design goal)."""
        mid = 500
        assert cosine_schedule(1000).alphas_cumprod[mid] > (
            linear_schedule(1000).alphas_cumprod[mid]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DiffusionSchedule(betas=np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            DiffusionSchedule(betas=np.array([[0.1]]))
        with pytest.raises(ValueError):
            linear_schedule(0)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.5, 0.1)


class TestDdimTimesteps:
    def test_count_and_order(self):
        schedule = linear_schedule(1000)
        steps = schedule.ddim_timesteps(50)
        assert len(steps) == 50
        assert np.all(np.diff(steps) < 0)  # descending

    def test_full_budget_visits_every_step(self):
        schedule = linear_schedule(100)
        steps = schedule.ddim_timesteps(100)
        assert sorted(steps.tolist()) == list(range(100))

    def test_single_step(self):
        assert linear_schedule(1000).ddim_timesteps(1).tolist() == [0]

    def test_bounds_enforced(self):
        schedule = linear_schedule(100)
        with pytest.raises(ValueError):
            schedule.ddim_timesteps(0)
        with pytest.raises(ValueError):
            schedule.ddim_timesteps(101)

    @settings(max_examples=30, deadline=None)
    @given(
        train=st.integers(10, 1000),
        frac=st.floats(0.01, 1.0),
    )
    def test_subsequence_always_valid(self, train, frac):
        schedule = linear_schedule(train)
        inference = max(1, int(train * frac))
        steps = schedule.ddim_timesteps(inference)
        assert len(steps) == inference
        assert steps.min() >= 0 and steps.max() < train
        assert len(set(steps.tolist())) == inference  # no duplicates


class TestTradeoff:
    def test_latency_linear_in_steps(self):
        points = steps_latency_tradeoff(0.02, [10, 20, 50])
        assert points[1].latency_s == pytest.approx(
            2 * points[0].latency_s
        )

    def test_overhead_added_once(self):
        points = steps_latency_tradeoff(
            0.02, [10], fixed_overhead_s=0.5
        )
        assert points[0].latency_s == pytest.approx(0.7)

    def test_coverage_grows_with_steps(self):
        points = steps_latency_tradeoff(0.02, [2, 10, 50, 1000])
        coverages = [p.snr_coverage for p in points]
        assert coverages == sorted(coverages)
        assert coverages[-1] == pytest.approx(1.0)

    def test_paper_operating_points(self):
        """SD's 50 steps cover nearly the whole trajectory — the
        quality/latency sweet spot the suite configs encode."""
        points = steps_latency_tradeoff(0.02, [50])
        assert points[0].snr_coverage > 0.9

    def test_profiled_step_latency_reproduces_profile(self):
        trace = sd_profile(4).trace
        step_s, overhead_s = profiled_step_split(4)
        # Every denoising step replays the same UNet pass.
        assert all(
            step_time_s(trace, i) == step_s
            for i in range(4)
        )
        (point,) = steps_latency_tradeoff(
            step_s, [4], fixed_overhead_s=overhead_s
        )
        assert point.latency_s == pytest.approx(
            trace.total_time_s, rel=1e-12
        )

    def test_profiled_step_latency_predicts_other_step_counts(self):
        step_s, overhead_s = profiled_step_split(4)
        points = steps_latency_tradeoff(
            step_s, [2, 8], fixed_overhead_s=overhead_s
        )
        for point in points:
            assert point.latency_s == pytest.approx(
                sd_profile(point.steps).total_time_s, rel=1e-12
            )

    def test_step_counts_outside_schedule_rejected(self):
        for steps in (0, -1):
            with pytest.raises(ValueError, match="inference steps"):
                steps_latency_tradeoff(0.02, [10, steps])
        with pytest.raises(ValueError, match=r"\[1, 100\]"):
            steps_latency_tradeoff(
                0.02, [101], schedule=linear_schedule(100)
            )

    def test_points_sorted_by_steps(self):
        points = steps_latency_tradeoff(0.02, [50, 10, 25])
        assert [p.steps for p in points] == [10, 25, 50]

    def test_validation(self):
        with pytest.raises(ValueError):
            steps_latency_tradeoff(0.0, [10])
        with pytest.raises(ValueError):
            steps_latency_tradeoff(0.02, [])
