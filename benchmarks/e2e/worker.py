"""One benchmark round in a fresh interpreter: build a workload, run its ops.

``run.py`` starts this script once per round and reads one JSON object
from its standard output::

    python3 benchmarks/e2e/worker.py --workload NAME --seed N --budget S
    python3 benchmarks/e2e/worker.py --workload NAME --seed N --ops K --trace
    python3 benchmarks/e2e/worker.py --workload NAME --seed N --setup-only

The ops run back to back until their timed seconds reach ``--budget``
(a workload of passes always finishes its pass), ``--ops`` ops have run
or the workload has no more ops.  Caches start cold because the process
is new.  Anything the simulator prints goes to
standard error so the result stays the only line on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback

import reference
from tracing import Tracer, aggregate, null_span
from workloads import WORKLOADS, Workload


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(
    workload: Workload,
    *,
    budget_s: float | None = None,
    op_count: int | None = None,
    tracer: Tracer | None = None,
) -> dict:
    """Run ops of ``workload`` and account for them.

    A workload of passes runs its whole pass whatever the budget.
    Before the first op and after each one, untimed, the host-speed
    reference runs a window (see ``reference.py``).  Returns per-op
    ``[label, seconds, items, failures]`` records, the reference
    windows, the digest of the ops' outputs, peak RSS (see
    :class:`Workload`) and the kernel-cost cache's hit and miss counts
    over the ops; with a tracer, also its aggregated spans and counters.
    """
    from repro.kernels.cache import cost_cache_stats

    span = tracer.span if tracer is not None else null_span
    windows = [reference.window(reference.LEAD_S)]
    records: list[list] = []
    digest = hashlib.sha256()
    spent = 0.0
    cache_before = cost_cache_stats()
    ops = workload.ops()
    op = next(ops, None)
    outputs = None
    rss_mb = None
    while op is not None:
        failures: list[str] = []
        outcome = None
        with tracer.op() if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                outputs = op.run(span)
            except Exception:  # an op that raises is a failed op
                outputs = None
                failures.append(traceback.format_exc(limit=-3).strip())
            elapsed = time.perf_counter() - start
        windows.append(reference.window(reference.SHARE * elapsed))
        if outputs is not None:
            try:
                outcome = op.inspect(outputs)
            except Exception:
                failures.append(traceback.format_exc(limit=-3).strip())
        if outcome is not None:
            failures.extend(outcome.failures)
            digest.update(outcome.digest.encode())
        records.append([
            op.label, elapsed, outcome.items if outcome else 0, failures,
        ])
        for failure in failures:
            print(f"{workload.name} {op.label} failed: {failure}",
                  file=sys.stderr)
        if len(records) == 1 and not workload.passes:
            rss_mb = _peak_rss_mb()
        spent += elapsed
        over_budget = budget_s is not None and spent >= budget_s
        done = (over_budget and not workload.passes) or (
            op_count is not None and len(records) >= op_count
        )
        op = None if done else next(ops, None)
        if op is not None:
            outputs = None  # free this op's outputs before the next runs
    if rss_mb is None:
        rss_mb = _peak_rss_mb()
    cache_after = cost_cache_stats()
    if workload.final_check is not None and outputs is not None:
        try:
            violations = list(workload.final_check(outputs))
        except Exception:
            violations = [traceback.format_exc(limit=-3).strip()]
        for violation in violations:
            records[-1][3].append(violation)
            print(f"{workload.name} {records[-1][0]} failed: {violation}",
                  file=sys.stderr)
    result = {
        "workload": workload.name,
        "item": workload.item,
        "sizes": dict(workload.sizes),
        "pass_latency": workload.pass_latency,
        "ops": records,
        "reference": windows,
        "digest": digest.hexdigest(),
        "rss_mb": rss_mb,
        "cache_hits": cache_after.hits - cache_before.hits,
        "cache_misses": cache_after.misses - cache_before.misses,
    }
    if tracer is not None:
        result["layers"] = aggregate(tracer.spans)
        result["memo_hits"] = tracer.memo_hits
        result["fleet_requests"] = tracer.fleet_requests
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, help="timed seconds to run")
    parser.add_argument("--ops", type=int, help="number of ops to run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true",
                        help="also return every span (with --trace)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload and exit")
    args = parser.parse_args(argv)
    if not args.setup_only and (args.budget is None) == (args.ops is None):
        parser.error("give exactly one of --budget and --ops")
    result_out = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        workload = WORKLOADS[args.workload](args.seed)
        if args.setup_only:
            result = {}
        else:
            tracer = Tracer() if args.trace else None
            with tracer.installed() if tracer else contextlib.nullcontext():
                result = run_round(
                    workload, budget_s=args.budget, op_count=args.ops,
                    tracer=tracer,
                )
            if tracer is not None and args.spans:
                result["spans"] = [list(span) for span in tracer.spans]
    json.dump(result, result_out)
    result_out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
