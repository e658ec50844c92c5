#!/usr/bin/env python
"""Compare fleet_day's generated traffic between two checkouts.

The e2e benchmark's fleet_day workload (``benchmarks/e2e/workloads.py``)
draws each day with ``repro.serving.traffic.generate_traffic``.  In each
checkout, this script takes the population and duration that workload
passes, generates the days of seeds 7-16 with that checkout's generator,
and hashes every column of every trace (the request batch, client and
combo ids, client rates and tiers) with its dtype.  Every column must
hash the same in both checkouts.

Usage::

    python tools/compare_traffic_columns.py OTHER_CHECKOUT

Each checkout is imported in its own process.  Exit status: 0 when every
column matches, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(7, 17)
COLUMNS = (
    "batch.arrival_s", "batch.service_s", "batch.model_ids",
    "batch.request_ids", "client_ids", "combo_ids", "client_rates",
    "client_tiers",
)


class _Captured(Exception):
    """Carries fleet_day's ``generate_traffic`` arguments out of its op."""


def column_lines(root: str) -> None:
    """Print ``seed column dtype length sha256`` for ``root``'s days."""
    sys.path.insert(0, f"{root}/src")
    import repro.serving.traffic as traffic

    spec = importlib.util.spec_from_file_location(
        "workloads", f"{root}/benchmarks/e2e/workloads.py"
    )
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(
        spec
    )
    spec.loader.exec_module(workloads)
    generate = traffic.generate_traffic

    def capture(population, *, duration_s, seed):
        raise _Captured(population, duration_s)

    traffic.generate_traffic = capture
    try:
        next(workloads.fleet_day(SEEDS[0]).ops()).run(None)
    except _Captured as captured:
        population, duration_s = captured.args
    finally:
        traffic.generate_traffic = generate
    for seed in SEEDS:
        trace = generate(population, duration_s=duration_s, seed=seed)
        for name in COLUMNS:
            column = trace
            for part in name.split("."):
                column = getattr(column, part)
            digest = hashlib.sha256(column.tobytes()).hexdigest()
            print(seed, name, column.dtype.str, len(column), digest)


def _lines(root: Path) -> list[str]:
    child = (
        f"import sys; sys.path.insert(0, {str(REPO_ROOT / 'tools')!r}); "
        "from compare_traffic_columns import column_lines; "
        "column_lines(sys.argv[1])"
    )
    return subprocess.run(
        [sys.executable, "-c", child, str(root)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    ours, theirs = _lines(REPO_ROOT), _lines(Path(argv[0]).resolve())
    differing = [
        f"{a}\n  vs {b}" for a, b in zip(ours, theirs) if a != b
    ]
    if len(ours) != len(theirs) or differing or not ours:
        print(
            f"{len(differing)} of {len(ours)} columns differ "
            f"({len(theirs)} in the other checkout)",
        )
        print("\n".join(differing))
        return 1
    print(f"{len(ours)} columns over seeds {SEEDS[0]}-{SEEDS[-1]} match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
