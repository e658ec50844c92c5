"""Workload generation and one-pool FIFO fleet tests."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.fleet import (
    FleetReport,
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.slo import percentile
from repro.serving.workload import (
    Request,
    WorkloadMix,
    bursty_rate,
    constant_rate,
    diurnal_rate,
    generate_requests,
    generate_requests_batch,
    generate_requests_pattern,
    suite_mix_from_profiles,
)

MIX = WorkloadMix(shares={"sd": 0.7, "muse": 0.3},
                  service_s={"sd": 1.0, "muse": 0.5})


def _stream(generate, **bad):
    """Call a request generator with one argument replaced."""
    args = dict(duration_s=10.0, service_jitter=0.05)
    if generate is generate_requests_pattern:
        args.update(rate_fn=constant_rate(1.0), peak_rate=1.0)
    else:
        args.update(arrival_rate=1.0)
    args.update(bad)
    return generate(MIX, **args)


@pytest.fixture
def mix():
    return WorkloadMix(
        shares={"sd": 0.7, "muse": 0.3},
        service_s={"sd": 1.0, "muse": 0.5},
    )


class TestWorkloadMix:
    def test_mean_service(self, mix):
        assert mix.mean_service_s == pytest.approx(0.85)

    def test_saturation_rate(self, mix):
        assert mix.saturation_rate() == pytest.approx(1 / 0.85)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadMix(shares={"a": 0.5}, service_s={"a": 1.0})

    def test_keys_must_match(self):
        with pytest.raises(ValueError):
            WorkloadMix(shares={"a": 1.0}, service_s={"b": 1.0})

    def test_from_suite_profiles(self, suite_profiles):
        mix = suite_mix_from_profiles(
            suite_profiles,
            shares={"stable_diffusion": 0.8, "muse": 0.2},
        )
        flash_sd = suite_profiles["stable_diffusion"][1]
        assert mix.service_s["stable_diffusion"] == pytest.approx(
            flash_sd.total_time_s
        )


class TestGeneration:
    def test_deterministic_for_seed(self, mix):
        a = generate_requests(
            mix, arrival_rate=2.0, duration_s=100.0, seed=3
        )
        b = generate_requests(
            mix, arrival_rate=2.0, duration_s=100.0, seed=3
        )
        assert a == b

    def test_rate_approximately_respected(self, mix):
        requests = generate_requests(
            mix, arrival_rate=5.0, duration_s=500.0, seed=1
        )
        assert len(requests) == pytest.approx(2500, rel=0.1)

    def test_mix_approximately_respected(self, mix):
        requests = generate_requests(
            mix, arrival_rate=5.0, duration_s=500.0, seed=1
        )
        sd_share = sum(
            1 for request in requests if request.model == "sd"
        ) / len(requests)
        assert sd_share == pytest.approx(0.7, abs=0.05)

    def test_arrivals_sorted_within_duration(self, mix):
        requests = generate_requests(
            mix, arrival_rate=3.0, duration_s=50.0, seed=2
        )
        arrivals = [request.arrival_s for request in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] < 50.0

    def test_invalid_args(self, mix):
        # Zero rate is a valid empty scenario; negatives are not.
        assert generate_requests(
            mix, arrival_rate=0.0, duration_s=10.0
        ) == []
        with pytest.raises(ValueError):
            generate_requests(mix, arrival_rate=-1.0, duration_s=10.0)
        with pytest.raises(ValueError):
            generate_requests(
                mix, arrival_rate=1.0, duration_s=10.0,
                service_jitter=1.5,
            )


class TestFiniteInputs:
    """NaN and inf fail naming the field before any draw.

    ``nan < 0`` is False, so bare bounds let them through: a NaN
    duration never ended the arrival loop, an infinite one overflowed
    the batch generator, and NaN shares, service times and rates
    were accepted.
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("make, field", [
        pytest.param(
            lambda v, g=generate, n=name: _stream(g, **{n: v}), name,
            id=f"{generate.__name__}.{name}",
        )
        for generate, rate in (
            (generate_requests, "arrival_rate"),
            (generate_requests_batch, "arrival_rate"),
            (generate_requests_pattern, "peak_rate"),
        )
        for name in (rate, "duration_s", "service_jitter")
    ] + [
        pytest.param(
            lambda v: WorkloadMix(shares={"sd": v, "muse": 0.3},
                                  service_s={"sd": 1.0, "muse": 0.5}),
            "shares['sd']", id="WorkloadMix.shares",
        ),
        pytest.param(
            lambda v: WorkloadMix(shares={"sd": 0.7, "muse": 0.3},
                                  service_s={"sd": 1.0, "muse": v}),
            "service_s['muse']", id="WorkloadMix.service_s",
        ),
        pytest.param(constant_rate, "rate", id="constant_rate"),
        pytest.param(diurnal_rate, "mean_rate", id="diurnal_rate.mean"),
        pytest.param(
            lambda v: diurnal_rate(1.0, peak_to_trough=v),
            "peak_to_trough", id="diurnal_rate.peak_to_trough",
        ),
        pytest.param(
            lambda v: diurnal_rate(1.0, period_s=v), "period_s",
            id="diurnal_rate.period_s",
        ),
        pytest.param(
            lambda v: diurnal_rate(1.0, phase_s=v), "phase_s",
            id="diurnal_rate.phase_s",
        ),
        pytest.param(
            lambda v: bursty_rate(v, burst_rate=2.0, bursts=()),
            "base_rate", id="bursty_rate.base_rate",
        ),
        pytest.param(
            lambda v: bursty_rate(1.0, burst_rate=v, bursts=()),
            "burst_rate", id="bursty_rate.burst_rate",
        ),
        pytest.param(
            lambda v: bursty_rate(1.0, burst_rate=2.0, bursts=((v, 5.0),)),
            "bursts[0] start_s", id="bursty_rate.start_s",
        ),
        pytest.param(
            lambda v: bursty_rate(1.0, burst_rate=2.0, bursts=((0.0, v),)),
            "bursts[0] duration_s", id="bursty_rate.duration_s",
        ),
    ])
    def test_rejects_non_finite(self, make, field, bad):
        with pytest.raises(
            ValueError, match=re.escape(f"{field} must be finite")
        ):
            make(bad)

    def test_nan_rate_fails_thinning(self):
        # ``nan > peak`` is False: a NaN rate accepted every candidate.
        with pytest.raises(ValueError, match=r"= nan is not at most"):
            _stream(
                generate_requests_pattern, rate_fn=lambda t: math.nan
            )


def fixed_requests(count=10, service=1.0, spacing=2.0):
    return [
        Request(
            request_id=index,
            arrival_s=index * spacing,
            model="m",
            service_s=service,
        )
        for index in range(count)
    ]


def fifo(requests, servers=1) -> FleetReport:
    """One FIFO pool, one request per launch, priced per model.

    Each model's latency is its requests' (constant) service time.
    """
    return simulate_fleet(requests, [
        PoolSpec(
            name="p0",
            machine="dgx-a100-80g",
            servers=servers,
            latency_fns={
                request.model: affine_batch_latency(
                    request.service_s, marginal_fraction=1.0
                )
                for request in requests
            },
            max_batch=1,
        )
    ])


class TestQueueSimulation:
    def test_underloaded_has_no_queueing(self):
        report = fifo(fixed_requests(spacing=2.0, service=1.0))
        assert report.queueing_s.mean() == pytest.approx(0.0)
        assert report.pool_stats("p0").utilization == pytest.approx(
            0.5, abs=0.1
        )

    def test_overloaded_queue_builds(self):
        report = fifo(fixed_requests(spacing=0.5, service=1.0))
        assert report.queueing_s.mean() > 1.0
        latencies = [r.latency_s for r in report.completed]
        assert latencies == sorted(latencies)  # linearly growing backlog

    def test_two_servers_halve_backlog(self):
        one = fifo(fixed_requests(spacing=0.5, service=1.0))
        two = fifo(fixed_requests(spacing=0.5, service=1.0), servers=2)
        assert two.latency_s.mean() < one.latency_s.mean()

    def test_percentiles_ordered(self):
        latencies = fifo(
            fixed_requests(spacing=0.5, service=1.0)
        ).latency_s.tolist()
        assert percentile(latencies, 50) <= (
            percentile(latencies, 95)
        ) <= percentile(latencies, 100)

    def test_invalid_percentile(self):
        latencies = fifo(fixed_requests()).latency_s.tolist()
        with pytest.raises(ValueError):
            percentile(latencies, 0.0)

    def test_throughput_conservation(self):
        requests = fixed_requests(count=20, spacing=1.0, service=0.5)
        report = fifo(requests)
        assert report.completed_count == 20

    @settings(max_examples=25, deadline=None)
    @given(
        servers=st.integers(1, 4),
        spacing=st.floats(0.1, 3.0),
        service=st.floats(0.1, 3.0),
    )
    def test_latency_at_least_service(self, servers, spacing, service):
        report = fifo(
            fixed_requests(count=12, spacing=spacing, service=service),
            servers=servers,
        )
        assert all(
            record.latency_s >= record.request.service_s - 1e-12
            for record in report.completed
        )
        assert 0.0 < report.pool_stats("p0").utilization <= 1.0


def servers_for_p95(requests, p95_slo_s, max_servers=64):
    """Smallest FIFO pool whose p95 latency meets the SLO, or None."""
    for servers in range(1, max_servers + 1):
        latencies = fifo(requests, servers).latency_s.tolist()
        if percentile(latencies, 95.0) <= p95_slo_s:
            return servers
    return None


class TestSlo:
    def test_more_load_needs_more_servers(self):
        light = fixed_requests(count=20, spacing=2.0, service=1.0)
        heavy = fixed_requests(count=20, spacing=0.3, service=1.0)
        assert servers_for_p95(light, p95_slo_s=1.5) == 1
        needed = servers_for_p95(heavy, p95_slo_s=1.5)
        assert needed is not None and needed > 1

    def test_unreachable_slo_returns_none(self):
        # No pool beats the service time itself.
        requests = fixed_requests(count=5, spacing=0.1, service=1.0)
        assert servers_for_p95(
            requests, p95_slo_s=0.5, max_servers=4
        ) is None
