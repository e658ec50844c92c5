"""Queueing-theory witness: the engine reproduces M/D/1 mean wait.

A witness that needs no second engine.  One pool, one server,
``max_batch=1``, a constant batch latency ``s`` and Poisson arrivals
at utilization ``rho`` is an M/D/1 queue, whose mean wait in queue is
the Pollaczek–Khinchine value ``rho * s / (2 * (1 - rho))``.  (Erlang-C
would need exponential service, which a batch-latency function cannot
express: service time depends only on the batch size.)
"""

import pytest

from repro.serving.fleet import PoolSpec, simulate_fleet
from repro.serving.workload import WorkloadMix, generate_requests_batch

SERVICE_S = 1.0
RHO = 0.5
REQUESTS = 50_000


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mean_wait_matches_pollaczek_khinchine(seed):
    requests = generate_requests_batch(
        WorkloadMix(shares={"sd": 1.0}, service_s={"sd": SERVICE_S}),
        arrival_rate=RHO / SERVICE_S,
        duration_s=REQUESTS * SERVICE_S / RHO,
        seed=seed,
    )
    pool = PoolSpec(
        name="md1", machine="dgx-a100-80g", servers=1, max_batch=1,
        latency_fns={"sd": lambda batch: SERVICE_S},
    )
    report = simulate_fleet(requests, [pool])
    assert report.completed_count == len(requests)
    wait = report.comp_start_s - report.req_arrival_s[report.comp_req]
    expected = RHO * SERVICE_S / (2.0 * (1.0 - RHO))
    assert wait.mean() == pytest.approx(expected, rel=0.05)
