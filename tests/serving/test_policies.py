"""Scheduling-policy tests, all through the fleet engine."""

import pytest

from repro.serving.faults import FAULT_FREE, Crash, FaultSchedule
from repro.serving.fleet import (
    SCHEDULING_POLICIES,
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.workload import Request

# (request id, model, service_s) in queue order: queued at t = 0.1,
# 0.2, ... behind a 1 s blocker on the pool's only server.
QUEUE = (
    (0, "video", 4.0),
    (1, "image", 1.0),
    (2, "video", 4.0),
    (3, "image", 1.0),
)
SERVICE_S = {
    "video": 4.0, "image": 1.0, "a": 1.0, "b": 1.0, "other": 1.0,
}


def first_batch(
    policy, queue=QUEUE, *, max_batch=8, blocker="other",
    faults=FAULT_FREE, spacing_s=0.1,
):
    """Ids of the queued requests that start when the server frees at
    t=1.  ``blocker`` is the model of the 1 s request (id 9) the server
    runs from t=0; ``None`` runs no blocker.  The queued requests
    arrive ``spacing_s`` apart (0 queues them all at t=0, in order)."""
    requests = [
        Request(
            request_id=rid, arrival_s=spacing_s * position, model=model,
            service_s=service,
        )
        for position, (rid, model, service) in enumerate(queue, 1)
    ]
    if blocker is not None:
        requests.insert(0, Request(
            request_id=9, arrival_s=0.0, model=blocker,
            service_s=SERVICE_S[blocker],
        ))
    pool = PoolSpec(
        name="p", machine="dgx-a100-80g", servers=1,
        latency_fns={
            model: affine_batch_latency(service, marginal_fraction=1.0)
            for model, service in SERVICE_S.items()
        },
        max_batch=max_batch,
        policy=policy,
    )
    report = simulate_fleet(requests, [pool], faults=faults)
    return sorted(
        record.request.request_id for record in report.completed
        if record.start_s == 1.0 and record.request.request_id != 9
    )


class TestRegistry:
    def test_lookup_by_name(self):
        assert SCHEDULING_POLICIES == ("fifo", "sjf", "affinity")
        for name in SCHEDULING_POLICIES:
            assert PoolSpec(
                name="p", machine="dgx-a100-80g", servers=1,
                latency_fns={"sd": affine_batch_latency(1.0)},
                policy=name,
            ).policy == name

    def test_unknown_policy(self):
        for policy in ("priority", "FIFO", object()):
            with pytest.raises(ValueError, match="policy.*fifo"):
                PoolSpec(
                    name="p", machine="dgx-a100-80g", servers=1,
                    latency_fns={"sd": affine_batch_latency(1.0)},
                    policy=policy,
                )


class TestFifo:
    def test_head_of_line_model_wins(self):
        assert first_batch("fifo") == [0, 2]  # both videos, queue order

    def test_cap_respected(self):
        assert first_batch("fifo", max_batch=1) == [0]


class TestSjf:
    def test_cheapest_model_wins(self):
        assert first_batch("sjf") == [1, 3]  # the images

    def test_tie_broken_by_queue_age(self):
        # Equal service behind a costlier head of line: request 1
        # queued before request 0, so it goes first.
        queue = ((2, "video", 4.0), (1, "b", 1.0), (0, "a", 1.0))
        assert first_batch("sjf", queue, max_batch=1) == [1]

    def test_exact_tie_broken_by_queue_order(self):
        # Equal service and equal arrival: request 1 ("b") queued
        # first, so it goes before request 0 although "a" sorts first.
        queue = ((2, "video", 4.0), (1, "b", 1.0), (0, "a", 1.0))
        assert first_batch(
            "sjf", queue, max_batch=1, spacing_s=0.0
        ) == [1]


class TestAffinity:
    def test_sticks_to_resident_model(self):
        assert first_batch("affinity", blocker="image") == [1, 3]

    def test_falls_back_to_fifo_when_drained(self):
        assert first_batch("affinity", blocker="other") == [0, 2]

    def test_cold_server_behaves_fifo(self):
        # Down from t=0 to t=1: it comes back having served nothing.
        crash = FaultSchedule(crashes=(Crash(0, 0.0, 1.0),))
        assert first_batch(
            "affinity", blocker=None, faults=crash
        ) == [0, 2]


def two_model_burst(count=40):
    requests = []
    for index in range(count):
        model = "image" if index % 2 else "video"
        service = 1.0 if model == "image" else 4.0
        requests.append(
            Request(
                request_id=index, arrival_s=index * 0.05, model=model,
                service_s=service,
            )
        )
    return requests


def spec_with(policy, swap_cost_s=0.0):
    return PoolSpec(
        name="p", machine="dgx-a100-80g", servers=1,
        latency_fns={
            "image": affine_batch_latency(1.0),
            "video": affine_batch_latency(4.0),
        },
        max_batch=4,
        policy=policy,
        swap_cost_s=swap_cost_s,
    )


class TestPoliciesThroughFleet:
    def test_sjf_cuts_image_latency(self):
        requests = two_model_burst()
        fifo = simulate_fleet(requests, [spec_with("fifo")])
        sjf = simulate_fleet(requests, [spec_with("sjf")])

        def image_mean(report):
            image = [
                record.latency_s for record in report.completed
                if record.request.model == "image"
            ]
            return sum(image) / len(image)

        assert image_mean(sjf) < image_mean(fifo)
        assert len(sjf.completed) == len(fifo.completed) == 40

    def test_affinity_swaps_less_than_fifo(self):
        requests = two_model_burst()
        swap = 0.5
        fifo = simulate_fleet(
            requests, [spec_with("fifo", swap_cost_s=swap)]
        )
        affinity = simulate_fleet(
            requests, [spec_with("affinity", swap_cost_s=swap)]
        )
        assert affinity.pools[0].swaps < fifo.pools[0].swaps
        assert len(affinity.completed) == 40
