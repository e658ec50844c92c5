"""pool_stats lookup: dict-backed, with self-describing errors.

Regression test for the linear-scan-and-bare-KeyError lookup the
report class used to ship: an unknown pool name must raise a
ValueError that lists the valid names, and repeated lookups must hit
the cached name index rather than rescanning the tuple.
"""

import pytest

from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.workload import WorkloadMix, generate_requests


@pytest.fixture(scope="module")
def report():
    mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 1.0})
    requests = generate_requests(
        mix, arrival_rate=2.0, duration_s=20.0, seed=1
    )
    fns = {"sd": affine_batch_latency(1.0, marginal_fraction=0.6)}
    pools = [
        PoolSpec(
            name="a100", machine="dgx-a100-80g", servers=2,
            latency_fns=fns, max_batch=2,
        ),
        PoolSpec(
            name="h100", machine="dgx-h100", servers=1,
            latency_fns=fns, max_batch=2,
        ),
    ]
    return simulate_fleet(requests, pools)


class TestPoolStats:
    def test_lookup_by_name(self, report):
        for name in ("a100", "h100"):
            assert report.pool_stats(name).name == name

    def test_unknown_pool_lists_valid_names(self, report):
        with pytest.raises(ValueError) as excinfo:
            report.pool_stats("tpu")
        message = str(excinfo.value)
        assert "unknown pool 'tpu'" in message
        assert "a100" in message
        assert "h100" in message

    def test_lookup_is_cached(self, report):
        assert report._pools_by_name is report._pools_by_name
        assert report.pool_stats("a100") is report.pool_stats("a100")
