"""Property tests for the fleet simulator.

Each invariant here holds by construction in a correct discrete-event
simulator; hypothesis searches adversarial arrival patterns so that
scheduler refactors which break conservation, causality, or ordering
fail loudly instead of skewing downstream SLO numbers quietly.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batching import interpolated_batch_latency
from repro.serving.faults import Crash, FaultSchedule, RetryPolicy
from repro.serving.fleet import (
    SCHEDULING_POLICIES,
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.workload import Request


def build_requests(profile):
    """Turn (inter_arrival, service) draws into a request stream."""
    requests = []
    clock = 0.0
    for index, (gap, service) in enumerate(profile):
        clock += gap
        requests.append(
            Request(
                request_id=index,
                arrival_s=clock,
                model="sd",
                service_s=service,
            )
        )
    return requests


request_profiles = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=4.0),
    ),
    min_size=1,
    max_size=40,
)


def fleet_pool(servers, max_batch=3):
    return PoolSpec(
        name="p0",
        machine="dgx-a100-80g",
        servers=servers,
        latency_fns={"sd": affine_batch_latency(1.0)},
        max_batch=max_batch,
    )


@st.composite
def fifo_streams(draw):
    """Arrival gaps (ties included) over 1-3 constant-service models."""
    services = draw(
        st.lists(st.floats(0.05, 4.0), min_size=1, max_size=3)
    )
    draws = draw(st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
            st.integers(0, len(services) - 1),
        ),
        min_size=1,
        max_size=40,
    ))
    service_s = {f"m{index}": s for index, s in enumerate(services)}
    requests = []
    clock = 0.0
    for index, (gap, model) in enumerate(draws):
        clock += gap
        requests.append(Request(
            request_id=index, arrival_s=clock, model=f"m{model}",
            service_s=services[model],
        ))
    return requests, service_s


def fifo_pool(servers, service_s):
    """One pool, one request per launch, constant service per model."""
    return PoolSpec(
        name="p0",
        machine="dgx-a100-80g",
        servers=servers,
        latency_fns={
            model: affine_batch_latency(service, marginal_fraction=1.0)
            for model, service in service_s.items()
        },
        max_batch=1,
    )


def earliest_free_server(requests, servers, service_s):
    """Reference FIFO pool: each arrival, in order, takes the server
    that frees first.  Returns request id -> (start, finish)."""
    free_at = [(0.0, index) for index in range(servers)]
    timeline = {}
    for request in sorted(requests, key=lambda r: r.arrival_s):
        available, server = heapq.heappop(free_at)
        start = max(available, request.arrival_s)
        finish = start + service_s[request.model]
        timeline[request.request_id] = (start, finish)
        heapq.heappush(free_at, (finish, server))
    return timeline


def one_server_reference(
    requests, latency_fns, policy, max_batch, swap_cost_s
):
    """Reference one-server pool under a scheduling policy.  Returns
    request id -> start time.

    Arrivals at the instant the server frees are queued before it
    picks; an arrival that finds the server idle launches alone.  The
    policy picks a model and the batch is that model's first
    ``max_batch`` queued requests."""
    arrivals = sorted(requests, key=lambda r: r.arrival_s)
    queue, starts = [], {}
    free_at, last, index = None, None, 0
    while index < len(arrivals) or queue:
        while (
            free_at is not None and index < len(arrivals)
            and arrivals[index].arrival_s <= free_at
        ):
            queue.append(arrivals[index])
            index += 1
        if not queue:  # idle: the next arrival launches alone
            batch = [arrivals[index]]
            index += 1
            now = batch[0].arrival_s
        else:
            now = free_at
            if policy == "affinity" and any(
                r.model == last for r in queue
            ):
                model = last
            elif policy == "sjf":
                model = min(
                    queue, key=lambda r: (r.service_s, r.arrival_s)
                ).model
            else:
                model = queue[0].model
            batch = [r for r in queue if r.model == model][:max_batch]
            queue = [r for r in queue if r not in batch]
        model = batch[0].model
        latency = latency_fns[model](len(batch))
        if last is not None and model != last:
            latency += swap_cost_s
        free_at, last = now + latency, model
        starts.update((r.request_id, now) for r in batch)
    return starts


class TestQueueProperties:
    @settings(max_examples=100, deadline=None)
    @given(stream=fifo_streams(), servers=st.integers(1, 5))
    def test_one_pool_matches_earliest_free_server(self, stream, servers):
        requests, service_s = stream
        report = simulate_fleet(requests, [fifo_pool(servers, service_s)])
        timeline = {
            record.request.request_id: (record.start_s, record.finish_s)
            for record in report.completed
        }
        assert timeline == earliest_free_server(
            requests, servers, service_s
        )

    @settings(max_examples=100, deadline=None)
    @given(
        stream=fifo_streams(),
        max_batch=st.integers(1, 4),
        policy=st.sampled_from(SCHEDULING_POLICIES),
        swap_cost_s=st.sampled_from((0.0, 0.5)),
    )
    def test_one_server_policies_match_reference(
        self, stream, max_batch, policy, swap_cost_s
    ):
        requests, service_s = stream
        latency_fns = {
            model: affine_batch_latency(service, marginal_fraction=0.5)
            for model, service in service_s.items()
        }
        pool = PoolSpec(
            name="p0", machine="dgx-a100-80g", servers=1,
            latency_fns=latency_fns, max_batch=max_batch,
            policy=policy, swap_cost_s=swap_cost_s,
        )
        report = simulate_fleet(requests, [pool])
        starts = {
            record.request.request_id: record.start_s
            for record in report.completed
        }
        assert starts == one_server_reference(
            requests, latency_fns, policy, max_batch, swap_cost_s
        )

    @settings(max_examples=50, deadline=None)
    @given(stream=fifo_streams(), servers=st.integers(1, 5))
    def test_every_arrival_completes_exactly_once(self, stream, servers):
        requests, service_s = stream
        report = simulate_fleet(requests, [fifo_pool(servers, service_s)])
        completed_ids = sorted(
            record.request.request_id for record in report.completed
        )
        assert completed_ids == [r.request_id for r in requests]

    @settings(max_examples=50, deadline=None)
    @given(stream=fifo_streams(), servers=st.integers(1, 5))
    def test_latency_at_least_service(self, stream, servers):
        requests, service_s = stream
        report = simulate_fleet(requests, [fifo_pool(servers, service_s)])
        for record in report.completed:
            assert record.latency_s >= record.request.service_s - 1e-9
            assert record.queueing_s >= -1e-9
            assert record.start_s >= record.request.arrival_s - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(stream=fifo_streams(), servers=st.integers(1, 5))
    def test_fifo_order_per_server(self, stream, servers):
        requests, service_s = stream
        report = simulate_fleet(requests, [fifo_pool(servers, service_s)])
        by_server = {}
        for record in report.completed:
            by_server.setdefault(record.server, []).append(record)
        for records in by_server.values():
            records.sort(key=lambda record: record.start_s)
            arrivals = [r.request.arrival_s for r in records]
            assert arrivals == sorted(arrivals)

    @settings(max_examples=50, deadline=None)
    @given(stream=fifo_streams())
    def test_makespan_monotone_in_server_count(self, stream):
        requests, service_s = stream
        makespans = [
            simulate_fleet(
                requests, [fifo_pool(servers, service_s)]
            ).makespan_s
            for servers in (1, 2, 4, 8)
        ]
        for fewer, more in zip(makespans, makespans[1:]):
            assert more <= fewer + 1e-9


class TestBatchingProperties:
    @settings(max_examples=50, deadline=None)
    @given(profile=request_profiles, max_batch=st.integers(1, 6))
    def test_batches_respect_cap_and_conserve_requests(
        self, profile, max_batch
    ):
        # The dynamic-batching server: one pool of one server.
        requests = build_requests(profile)
        pool = PoolSpec(
            name="gpu",
            machine="dgx-a100-80g",
            servers=1,
            latency_fns={
                "sd": interpolated_batch_latency({1: 1.0, 8: 3.0})
            },
            max_batch=max_batch,
        )
        report = simulate_fleet(requests, [pool])
        sizes = {}
        for record in report.completed:
            sizes[record.start_s] = sizes.get(record.start_s, 0) + 1
        assert all(1 <= size <= max_batch for size in sizes.values())
        assert sum(sizes.values()) == len(requests)
        completed_ids = sorted(
            record.request.request_id for record in report.completed
        )
        assert completed_ids == [r.request_id for r in requests]


class TestFleetProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        profile=request_profiles,
        servers=st.integers(1, 4),
        max_batch=st.integers(1, 4),
    )
    def test_conservation_and_causality(
        self, profile, servers, max_batch
    ):
        requests = build_requests(profile)
        report = simulate_fleet(
            requests, [fleet_pool(servers, max_batch=max_batch)]
        )
        assert not report.failed
        completed_ids = sorted(
            record.request.request_id for record in report.completed
        )
        assert completed_ids == [r.request_id for r in requests]
        for record in report.completed:
            assert record.latency_s >= record.service_s - 1e-9
            assert record.queueing_s >= -1e-9
            assert record.start_s >= record.request.arrival_s - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        profile=request_profiles,
        servers=st.integers(1, 4),
        max_batch=st.integers(1, 4),
    )
    def test_batch_sizes_never_exceed_cap(
        self, profile, servers, max_batch
    ):
        requests = build_requests(profile)
        report = simulate_fleet(
            requests, [fleet_pool(servers, max_batch=max_batch)]
        )
        groups = {}
        for record in report.completed:
            key = (record.server, record.start_s)
            groups[key] = groups.get(key, 0) + 1
        assert all(size <= max_batch for size in groups.values())

    @settings(max_examples=25, deadline=None)
    @given(
        profile=request_profiles,
        crash_at=st.floats(min_value=0.1, max_value=20.0),
        downtime=st.floats(min_value=1.0, max_value=30.0),
        max_retries=st.integers(0, 2),
    )
    def test_conservation_under_faults(
        self, profile, crash_at, downtime, max_retries
    ):
        # With crashes and retries in play every offered request must
        # still be accounted for exactly once, as completed OR failed.
        requests = build_requests(profile)
        faults = FaultSchedule(
            crashes=(
                Crash(server=0, at_s=crash_at, downtime_s=downtime),
            )
        )
        report = simulate_fleet(
            requests,
            [fleet_pool(servers=2, max_batch=2)],
            retry=RetryPolicy(
                max_retries=max_retries, backoff_s=0.5, timeout_s=60.0
            ),
            faults=faults,
        )
        seen = sorted(
            [r.request.request_id for r in report.completed]
            + [r.request.request_id for r in report.failed]
        )
        assert seen == [r.request_id for r in requests]
        assert report.offered == len(requests)
        for record in report.completed:
            assert record.attempts >= 1
            assert record.latency_s >= record.service_s - 1e-9


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
