"""Batch-size sweep tests."""

import pytest

from repro.analysis.batching import (
    batching_efficiency,
    crossover_batch,
    sweep_batch_sizes,
)
from repro.distributed.registry import machine_from_name
from repro.ir.context import AttentionImpl
from repro.models.muse import Muse, MuseConfig
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.profiler import profile_model


@pytest.fixture(scope="module")
def muse_points():
    model = Muse(MuseConfig(base_steps=4, sr_steps=1))
    return sweep_batch_sizes(model, [1, 4, 16])


@pytest.fixture(scope="module")
def sd_model():
    return StableDiffusion(StableDiffusionConfig(denoising_steps=2))


@pytest.fixture(scope="module")
def sd_points(sd_model):
    return sweep_batch_sizes(sd_model, [1, 4])


class TestSweep:
    def test_latency_grows_with_batch(self, muse_points):
        latencies = [p.latency_s for p in muse_points]
        assert latencies == sorted(latencies)

    def test_throughput_grows_with_batch(self, muse_points):
        throughputs = [p.throughput_per_s for p in muse_points]
        assert throughputs == sorted(throughputs)

    def test_intensity_grows_with_batch(self, muse_points):
        """Weight reuse across the batch raises arithmetic intensity."""
        intensities = [p.traffic_intensity for p in muse_points]
        assert intensities == sorted(intensities)
        assert intensities[-1] > 1.5 * intensities[0]

    def test_per_sample_latency_improves(self, muse_points):
        per_sample = [p.latency_per_sample_s for p in muse_points]
        assert per_sample[-1] < per_sample[0]

    def test_each_point_is_its_profile(self, sd_model, sd_points):
        for point in sd_points:
            profile = profile_model(
                sd_model, attention_impl=AttentionImpl.FLASH,
                batch=point.batch,
            )
            trace = profile.trace
            assert point.latency_s == profile.total_time_s
            assert point.traffic_intensity == (
                trace.total_flops / trace.total_moved_bytes
            )

    def test_sd_latency_sublinear_in_batch(self, sd_points):
        """Batching amortizes launch overhead: 4x batch < 4x latency."""
        first, last = sd_points
        assert 1.0 < last.latency_s / first.latency_s < last.batch

    def test_gpu_reaches_the_profiler(self):
        model = Muse(MuseConfig(base_steps=2, sr_steps=1))
        h100 = machine_from_name("dgx-h100").gpu
        a100_points = sweep_batch_sizes(model, [1, 2])
        h100_points = sweep_batch_sizes(model, [1, 2], gpu=h100)
        for a100, h100_point in zip(a100_points, h100_points):
            profile = profile_model(
                model, gpu=h100, attention_impl=AttentionImpl.FLASH,
                batch=h100_point.batch,
            )
            assert h100_point.latency_s == profile.total_time_s
            assert h100_point.latency_s < a100.latency_s

    def test_batches_sorted_in_output(self):
        model = Muse(MuseConfig(base_steps=2, sr_steps=1))
        points = sweep_batch_sizes(model, [8, 1])
        assert [p.batch for p in points] == [1, 8]

    def test_invalid_batches(self, sd_points):
        model = StableDiffusion(StableDiffusionConfig(denoising_steps=1))
        with pytest.raises(ValueError):
            sweep_batch_sizes(model, [])
        with pytest.raises(ValueError):
            sweep_batch_sizes(model, [0])
        del sd_points


class TestDerived:
    def test_batching_efficiency_below_ideal(self, muse_points):
        # 1.0 would mean latency stayed flat as batch grew ("free"
        # batching); compute-bound models land well below.
        efficiency = batching_efficiency(muse_points)
        assert 0.0 < efficiency <= 1.3

    def test_efficiency_reflects_latency_flatness(self, muse_points):
        first, last = muse_points[0], muse_points[-1]
        expected = first.latency_s / last.latency_s
        assert batching_efficiency(muse_points) == pytest.approx(expected)

    def test_efficiency_needs_two_points(self, muse_points):
        with pytest.raises(ValueError):
            batching_efficiency(muse_points[:1])

    def test_diffusion_compute_bound_at_batch_one(self, sd_points):
        assert crossover_batch(sd_points) == 1

    def test_crossover_none_when_always_memory_bound(self):
        from repro.analysis.batching import BatchPoint

        points = [
            BatchPoint(1, 1.0, 1.0, 10.0, "memory"),
            BatchPoint(2, 1.5, 1.3, 20.0, "memory"),
        ]
        assert crossover_batch(points) is None
