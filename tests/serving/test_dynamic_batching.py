"""Dynamic batching: batch-latency curves and the one-server fleet pool."""

import pytest

from repro.serving.batching import interpolated_batch_latency
from repro.serving.fleet import PoolSpec, simulate_fleet
from repro.serving.workload import Request


def burst(count: int, spacing: float, service: float = 1.0):
    return [
        Request(
            request_id=index,
            arrival_s=index * spacing,
            model="m",
            service_s=service,
        )
        for index in range(count)
    ]


# A realistic sub-linear batch curve: batch 8 costs 3x batch 1.
CURVE = interpolated_batch_latency({1: 1.0, 2: 1.4, 4: 2.0, 8: 3.0})


class TestBatchLatencyFn:
    def test_measured_points_exact(self):
        assert CURVE(1) == 1.0
        assert CURVE(4) == 2.0

    def test_interpolation_between_points(self):
        assert CURVE(3) == pytest.approx(1.7)

    def test_extrapolation_uses_marginal_cost(self):
        # Last segment slope: (3.0 - 2.0) / 4 = 0.25 per request.
        assert CURVE(12) == pytest.approx(3.0 + 4 * 0.25)

    def test_below_smallest_point_clamps(self):
        curve = interpolated_batch_latency({2: 1.0, 4: 1.5})
        assert curve(1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            interpolated_batch_latency({})
        with pytest.raises(ValueError):
            interpolated_batch_latency({1: 2.0, 2: 1.0})  # decreasing
        with pytest.raises(ValueError):
            CURVE(0)

    def test_single_point_extrapolates_positive_marginal_cost(self):
        # Regression: one measured point used to extrapolate flat, so a
        # capacity plan off this curve thought large batches were free.
        curve = interpolated_batch_latency({4: 2.0})
        assert curve(4) == 2.0
        # Fallback slope is the average per-request cost: 2.0 / 4.
        assert curve(8) == pytest.approx(2.0 + 4 * 0.5)
        assert curve(12) > curve(8) > curve(4)

    def test_flat_final_segment_extrapolates_positive_marginal_cost(self):
        # Equal latencies pass the non-decreasing check but give the
        # last segment zero slope; extrapolation must still charge.
        curve = interpolated_batch_latency({1: 1.0, 2: 1.0})
        assert curve(2) == 1.0
        assert curve(4) == pytest.approx(1.0 + 2 * 0.5)
        assert curve(6) > curve(4)


def one_server(max_batch: int = 8) -> PoolSpec:
    """The dynamic-batching server: one GPU pricing batches off CURVE."""
    return PoolSpec(
        name="gpu",
        machine="dgx-a100-80g",
        servers=1,
        latency_fns={"m": CURVE},
        max_batch=max_batch,
    )


def batch_sizes(report) -> list[int]:
    """Launched batch sizes in launch order (members share a start)."""
    sizes: dict[float, int] = {}
    for record in report.completed:
        sizes[record.start_s] = sizes.get(record.start_s, 0) + 1
    return [sizes[start] for start in sorted(sizes)]


class TestBatchingServer:
    def test_idle_arrivals_run_alone(self):
        report = simulate_fleet(burst(5, spacing=10.0), [one_server()])
        assert batch_sizes(report) == [1] * 5
        assert report.queueing_s.max() == pytest.approx(0.0)

    def test_overload_grows_batches(self):
        report = simulate_fleet(burst(64, spacing=0.05), [one_server()])
        sizes = batch_sizes(report)
        assert sum(sizes) / len(sizes) > 4.0

    def test_max_batch_respected(self):
        report = simulate_fleet(burst(64, spacing=0.01), [one_server()])
        assert max(batch_sizes(report)) <= 8

    def test_all_requests_complete_once(self):
        report = simulate_fleet(burst(30, spacing=0.2), [one_server()])
        ids = [record.request.request_id for record in report.completed]
        assert sorted(ids) == list(range(30))

    def test_batching_beats_fifo_under_load(self):
        """The point of batching: sub-linear batch cost turns backlog
        into throughput."""
        requests = burst(60, spacing=0.3, service=1.0)
        fifo = simulate_fleet(requests, [one_server(max_batch=1)])
        batched = simulate_fleet(requests, [one_server(max_batch=8)])
        assert batched.latency_s.mean() < fifo.latency_s.mean() / 2
        assert batched.makespan_s < fifo.makespan_s

    def test_batch_members_share_timeline(self):
        # Dispatch never waits to fill a batch: the first of 16
        # simultaneous arrivals finds the server free and launches
        # alone; the other 15 queue and leave in batches of <= 4.
        report = simulate_fleet(
            burst(16, spacing=0.0), [one_server(max_batch=4)]
        )
        assert batch_sizes(report) == [1, 4, 4, 4, 3]
        finishes = {record.finish_s for record in report.completed}
        assert len(finishes) == 5  # one finish time per batch
        order = [record.request.request_id for record in report.completed]
        assert order == list(range(16))  # batches leave in FIFO order

    def test_validation(self):
        with pytest.raises(ValueError):
            one_server(max_batch=0)

    def test_empty_request_list_is_idle_not_an_error(self):
        # Regression: an idle pool (no arrivals in the window) used to
        # raise; capacity sweeps over arrival rates hit rate=0 cleanly.
        report = simulate_fleet([], [one_server()])
        assert report.completed == ()
        assert report.makespan_s == 0.0
        assert batch_sizes(report) == []
