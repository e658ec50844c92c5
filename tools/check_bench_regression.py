#!/usr/bin/env python
"""Gate CI on benchmark medians: fail on >30% slowdown vs baseline.

Usage::

    # compare a fresh run against the committed baseline
    python -m pytest benchmarks -q --benchmark-json=/tmp/bench.json
    python tools/check_bench_regression.py /tmp/bench.json

    # refresh the baseline after an intentional performance change
    python tools/check_bench_regression.py /tmp/bench.json --update

The baseline (``benchmarks/BENCH_baseline.json`` by default) maps each
benchmark's fullname to its recorded median seconds.  Comparison is
*calibration-normalized*: the suite contains a fixed pure-Python
benchmark (``test_calibration_reference``) whose median tracks machine
speed but never the simulator, so every ratio is divided by the
calibration ratio before the threshold applies — a slower CI runner
slows the calibration loop by the same factor and cancels out.

Microsecond-scale entries additionally get an absolute *noise floor*
(``NOISE_FLOOR_S``): a median may exceed its relative threshold by up
to 2 ms of machine-normalized wall clock before it counts as a
regression.  At that scale the measurement is dominated by timer
granularity and per-process code/data layout (observed flapping 1.5-2x
between identical runs), not by the simulator; for any benchmark whose
median is tens of milliseconds or more the floor is a <=few-percent
widening and the relative threshold still governs.

Exit status: 0 when every benchmark is within the threshold, 1 on any
regression or missing benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"
CALIBRATION_KEY = "test_calibration_reference"
DEFAULT_THRESHOLD = 0.30
NOISE_FLOOR_S = 0.002


def load_medians(results_path: Path) -> dict[str, float]:
    """fullname -> median seconds from a pytest-benchmark JSON file."""
    data = json.loads(results_path.read_text())
    medians: dict[str, float] = {}
    for bench in data["benchmarks"]:
        medians[bench["fullname"]] = float(bench["stats"]["median"])
    if not medians:
        raise SystemExit(f"{results_path}: no benchmarks recorded")
    return medians


def write_baseline(
    medians: dict[str, float], baseline_path: Path
) -> None:
    """Write the committed baseline format (sorted, metadata first)."""
    payload = {
        "format": "repro-bench-baseline-v1",
        "threshold": DEFAULT_THRESHOLD,
        "calibration": CALIBRATION_KEY,
        "median_s": dict(sorted(medians.items())),
    }
    baseline_path.write_text(json.dumps(payload, indent=2) + "\n")


def calibration_ratio(
    current: dict[str, float], baseline: dict[str, float]
) -> float:
    """Machine-speed factor between this run and the baseline run."""
    for name, base_median in baseline.items():
        if CALIBRATION_KEY in name:
            for current_name, median in current.items():
                if CALIBRATION_KEY in current_name:
                    return median / base_median
            raise SystemExit(
                "calibration benchmark missing from the fresh run; "
                "did the benchmark suite complete?"
            )
    print("warning: baseline has no calibration benchmark; "
          "comparing raw medians", file=sys.stderr)
    return 1.0


def check(
    current: dict[str, float],
    baseline: dict[str, float],
    threshold: float,
) -> list[str]:
    """Return a failure line per regressed or missing benchmark."""
    scale = calibration_ratio(current, baseline)
    failures: list[str] = []
    for name, base_median in sorted(baseline.items()):
        if CALIBRATION_KEY in name:
            continue
        median = current.get(name)
        if median is None:
            failures.append(f"MISSING  {name}")
            continue
        normalized = (median / base_median) / scale
        allowed = 1.0 + threshold + NOISE_FLOOR_S / base_median
        status = "ok"
        if normalized > allowed:
            status = "REGRESSED"
            failures.append(
                f"{status}  {name}: {base_median * 1e3:.2f} ms -> "
                f"{median * 1e3:.2f} ms "
                f"({(normalized - 1.0) * 100:+.0f}% normalized)"
            )
        print(
            f"{status:9s} {name}  x{normalized:.2f} "
            f"(raw x{median / base_median:.2f}, machine x{scale:.2f})"
        )
    extra = [
        name for name in current
        if name not in baseline and CALIBRATION_KEY not in name
    ]
    for name in sorted(extra):
        print(f"new       {name} (not in baseline; run --update)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", type=Path,
        help="pytest-benchmark --benchmark-json output",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="relative slowdown that fails (default: baseline's, 0.30)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the results instead of checking",
    )
    args = parser.parse_args(argv)

    medians = load_medians(args.results)
    if args.update:
        write_baseline(medians, args.baseline)
        print(f"wrote {len(medians)} medians to {args.baseline}")
        return 0

    if not args.baseline.exists():
        raise SystemExit(
            f"{args.baseline} missing; create it with --update"
        )
    payload = json.loads(args.baseline.read_text())
    baseline = {
        name: float(value)
        for name, value in payload["median_s"].items()
    }
    threshold = (
        args.threshold
        if args.threshold is not None
        else float(payload.get("threshold", DEFAULT_THRESHOLD))
    )
    failures = check(medians, baseline, threshold)
    if failures:
        print(
            f"\n{len(failures)} benchmark regression(s) beyond "
            f"{threshold:.0%}:",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall benchmarks within {threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
