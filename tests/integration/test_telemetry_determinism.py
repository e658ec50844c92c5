"""Telemetry bytes must be identical across fresh interpreters.

The JSONL export claims byte determinism — same simulation, same
bytes, in any process.  Hash randomization, dict ordering accidents or
float formatting drift would all break that silently inside one
interpreter; this test runs the same instrumented simulation in two
fresh subprocesses (explicitly different ``PYTHONHASHSEED``) and
compares sha256 digests of the serialized telemetry.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import hashlib
import sys

from repro.obs import Telemetry, dumps_telemetry
from repro.serving.faults import Crash, FaultSchedule, RetryPolicy
from repro.serving.fleet import (
    PoolSpec, affine_batch_latency, simulate_fleet,
)
from repro.serving.resilience import (
    CircuitBreakerConfig, HedgeConfig, ResilienceConfig,
)
from repro.serving.workload import WorkloadMix, generate_requests

mix = WorkloadMix(
    shares={"sd": 0.7, "muse": 0.3},
    service_s={"sd": 2.0, "muse": 0.5},
)
requests = generate_requests(
    mix, arrival_rate=3.0, duration_s=90.0, seed=5
)
fns = {
    "sd": affine_batch_latency(2.0, marginal_fraction=0.6),
    "muse": affine_batch_latency(0.5, marginal_fraction=0.6),
}
pools = [
    PoolSpec(
        name="a100", machine="dgx-a100-80g", servers=3,
        latency_fns=fns, max_batch=2,
    ),
]
kwargs = dict(
    retry=RetryPolicy(max_retries=1, backoff_s=0.5, timeout_s=15.0),
    faults=FaultSchedule(
        crashes=(Crash(server=1, at_s=20.0, downtime_s=10.0),)
    ),
    resilience=ResilienceConfig(
        breaker=CircuitBreakerConfig(
            failure_threshold=1, window_s=30.0, cooldown_s=5.0,
            slow_factor=1.5,
        ),
        hedge=HedgeConfig(delay_s=6.0),
    ),
)
telemetry = Telemetry(sample_interval_s=5.0)
simulate_fleet(requests, pools, telemetry=telemetry, **kwargs)
text = dumps_telemetry(telemetry.log())
print(hashlib.sha256(text.encode()).hexdigest())
"""


def _digests(hash_seed: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=True,
        timeout=600,
    )
    return result.stdout.split()


@pytest.mark.slow
def test_telemetry_bytes_deterministic_across_interpreters():
    first = _digests("1")
    second = _digests("2")
    assert len(first) == 1
    assert first == second
