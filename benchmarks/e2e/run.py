"""End-to-end benchmark of the simulator: four workloads, host time only.

Run every workload, or one, and print each metric with its unit and
sample count; the last line of standard output is one JSON object::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--json PATH]
    python3 benchmarks/e2e/run.py --workload fleet_day --seed 7 --trace 1
    python3 benchmarks/e2e/run.py --trace --trace-out spans.json
    python3 benchmarks/e2e/run.py compare PARENT.jsonl CHANGE.jsonl

Each round of a workload runs in a fresh interpreter (``worker.py``), so
caches start cold as they do on every CLI run.  One client runs the ops
back to back in that process until their timed seconds reach
``--seconds``; a workload made of passes (battery, design_sweep) gets a
new process per pass.  ``setup_s`` is the median of nine cold starts
that import and build the inputs, timed here.  Every end-to-end time is
scaled to nominal host speed by a reference loop run beside the work
(``reference.py``).

``--trace`` runs the workload untraced, then replays the same ops in new
processes with the public functions of each layer wrapped, and prints
the per-layer metrics; the two runs' output digests must match.

``--json PATH`` appends one record per workload run to PATH (JSON lines);
``compare`` applies ``BENCHMARK.json``'s bounds to two such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import (
    END_TO_END,
    FAILED_RATIO,
    LAYER_METRICS,
    WORKLOAD_NAMES,
    layer_values,
    quartiles,
    tail_percentile,
    verdict,
)
import reference
from tracing import Span, chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_STARTS = 9
#: Cap on one workload's run, under the 180 s that a run of one workload
#: (``--workload NAME``) may take.  Running every workload in one
#: invocation applies it to each in turn.
RUN_CAP_S = 170.0
DEFAULT_SECONDS = 8
DEFAULT_SEED = 7


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


# -- running workers -----------------------------------------------------


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    # One client, one thread: keep numerical libraries from spawning more.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        env[variable] = "1"
    return env


def _call_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"run cap of {RUN_CAP_S:.0f} s reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env(),
            timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(
            f"run cap of {RUN_CAP_S:.0f} s reached in worker {args}"
        ) from error
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {' '.join(args)} exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_times(name: str, seed: int, deadline: float) -> list[float]:
    """Nominal seconds of each cold start, by the reference around it."""
    times = []
    windows = [reference.window(reference.LEAD_S)]
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        _call_worker(
            ["--workload", name, "--seed", str(seed), "--setup-only"],
            deadline,
        )
        times.append(time.perf_counter() - start)
        windows.append(reference.window(reference.SHARE * times[-1]))
    return reference.nominal(times, windows)


def _rounds(name: str, seed: int, seconds: float, deadline: float):
    """Untraced rounds until the ops' timed seconds reach ``seconds``."""
    rounds = []
    spent = 0.0
    while spent < seconds:
        result = _call_worker(
            ["--workload", name, "--seed", str(seed),
             "--budget", repr(seconds - spent)],
            deadline,
        )
        rounds.append(result)
        spent += sum(op[1] for op in result["ops"])
    return rounds


def _traced_rounds(name, seed, op_counts, deadline, *, spans: bool):
    """Replay rounds of the same op counts with tracing on."""
    extra = ["--spans"] if spans else []
    return [
        _call_worker(
            ["--workload", name, "--seed", str(seed), "--ops", str(count),
             "--trace", *extra],
            deadline,
        )
        for count in op_counts
    ]


# -- one workload run ----------------------------------------------------


def _ops(rounds: list[dict]) -> list[list]:
    return [op for result in rounds for op in result["ops"]]


def _round_seconds(result: dict) -> list[float]:
    """Each op's seconds at nominal host speed."""
    return reference.nominal(
        [op[1] for op in result["ops"]], result["reference"]
    )


def _nominal_seconds(rounds: list[dict]) -> list[float]:
    return [seconds for result in rounds for seconds in _round_seconds(result)]


def _latencies(rounds: list[dict]) -> list[float]:
    """Nominal seconds of each op, or of each pass where users wait for it."""
    if rounds[0]["pass_latency"]:
        return [sum(_round_seconds(result)) for result in rounds]
    return _nominal_seconds(rounds)


def _chunk_s(rounds: list[dict]) -> float:
    """Mean reference chunk time over the rounds: the host's speed."""
    windows = [window for result in rounds for window in result["reference"]]
    return sum(w[1] for w in windows) / sum(w[0] for w in windows)


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(rounds: list[dict], setup: list[float]) -> dict:
    """The end-to-end metrics of one untraced run, at nominal host speed.

    ``setup`` holds the nominal seconds of each cold start.
    """
    seconds = _nominal_seconds(rounds)
    latencies = _latencies(rounds)
    items = sum(op[2] for op in _ops(rounds))
    return {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "op_p50_s": _metric(
            statistics.median(latencies), "s", len(latencies)
        ),
        "work_per_s": _metric(items / sum(seconds), "1/s", len(seconds)),
        "peak_rss_mb": _metric(
            statistics.median(r["rss_mb"] for r in rounds), "MB",
            len(rounds),
        ),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """The per-layer metrics of a traced replay of ``plain``, and its spans.

    The second value sums the traced rounds' per-span-name calls, total
    and self seconds: the traced table the runner prints.
    """
    table: dict[str, dict[str, float]] = {}
    for result in traced:
        for name, row in result["layers"].items():
            total = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key in total:
                total[key] += row[key]
    values = layer_values(
        table,
        traced_wall_s=sum(op[1] for op in _ops(traced)),
        overhead_ratio=(
            sum(_nominal_seconds(traced)) / sum(_nominal_seconds(plain)) - 1.0
        ),
        memo_hits=sum(r["memo_hits"] for r in traced),
        fleet_requests=sum(r["fleet_requests"] for r in traced),
        cache_hits=sum(r["cache_hits"] for r in traced),
        cache_misses=sum(r["cache_misses"] for r in traced),
    )
    n = len(_ops(traced))
    metrics = {
        metric.name: _metric(values[metric.name], metric.unit, n)
        for metric in LAYER_METRICS
    }
    return metrics, table


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    want_spans: bool = False,
) -> dict:
    """One benchmark run of one workload, as a JSON-ready record."""
    deadline = time.monotonic() + RUN_CAP_S
    setup = [] if trace else _setup_times(name, seed, deadline)
    plain = _rounds(name, seed, seconds, deadline)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "item": plain[0]["item"],
        "sizes": plain[0]["sizes"],
        "digest": _combined_digest(plain),
        "host_seconds": [op[1] for op in _ops(plain)],
        "op_seconds": _latencies(plain),
        "chunk_s": _chunk_s(plain),
    }
    ops = _ops(plain)
    failures = [failure for op in ops for failure in op[3]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op[3])
    correct = True
    if trace:
        traced = _traced_rounds(
            name, seed, [len(r["ops"]) for r in plain], deadline,
            spans=want_spans,
        )
        traced_ops = _ops(traced)
        attempted += len(traced_ops)
        failed += sum(1 for op in traced_ops if op[3])
        failures += [failure for op in traced_ops for failure in op[3]]
        record["traced_digest"] = _combined_digest(traced)
        if record["traced_digest"] != record["digest"]:
            correct = False
            failures.append("traced and untraced output digests differ")
        record["metrics"], record["spans_table"] = per_layer(plain, traced)
        if want_spans:
            record["spans"] = [
                [Span(*span) for span in result["spans"]] for result in traced
            ]
    else:
        record["metrics"] = end_to_end(plain, setup)
        tail = tail_percentile(record["op_seconds"])
        if tail is not None:
            record["op_tail"] = {"percentile": tail[0], "value": tail[1]}
    record.update(
        correct=correct and failed == 0,
        attempted=attempted,
        failed=failed,
        failures=failures,
    )
    return record


def _combined_digest(rounds: list[dict]) -> str:
    hasher = hashlib.sha256()
    for result in rounds:
        hasher.update(result["digest"].encode())
    return hasher.hexdigest()


# -- printing ------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(headers, *rows)
    ]
    lines = [
        " | ".join(str(c).ljust(w) for c, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines += [
        " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
        for row in rows
    ]
    return "\n".join(lines)


def print_record(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(
        f"== {record['workload']}: {kind}, seed {record['seed']}, "
        f"{record['attempted']} ops, {record['failed']} failed, "
        f"item = {record['item']}"
    )
    print(
        f"host: reference chunk {1e3 * record['chunk_s']:.3f} ms "
        f"(nominal {1e3 * reference.NOMINAL_CHUNK_S:.3f} ms), ops took "
        f"{sum(record['host_seconds']):.3f} host s = "
        f"{sum(record['op_seconds']):.3f} nominal s"
    )
    rows = [
        [name, f"{metric['value']:.6g}", metric["unit"], metric["n"]]
        for name, metric in record["metrics"].items()
    ]
    if "op_tail" in record:
        tail = record["op_tail"]
        rows.append([
            f"op_p{tail['percentile']:g}_s", f"{tail['value']:.6g}", "s",
            len(record["op_seconds"]),
        ])
    print(_table(["metric", "value", "unit", "n"], rows))
    if record["trace"]:
        wall = record["metrics"]["trace.wall_s"]["value"]
        spans = sorted(
            record["spans_table"].items(), key=lambda item: -item[1]["self_s"]
        )
        print(_table(
            ["span", "calls", "total_s", "self_s", "self %"],
            [
                [name, row["calls"], f"{row['total_s']:.4f}",
                 f"{row['self_s']:.4f}",
                 f"{100 * row['self_s'] / wall:.1f}" if wall else "-"]
                for name, row in spans
            ],
        ))
    print(f"output_digest {record['digest']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print()


def result_line(records: list[dict]) -> dict:
    """The final JSON line: one workload's metrics, or all, prefixed."""
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, metric in record["metrics"].items():
            metrics[prefix + name] = {
                "value": metric["value"], "unit": metric["unit"],
            }
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


# -- run header and guards ----------------------------------------------


def _git_commit() -> str | None:
    env = dict(
        os.environ,
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=os.devnull,
    )
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_header(seed: int, seconds: float) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
    }


def _environment_error() -> str | None:
    if os.environ.get("REPRO_NO_CACHE", "") not in ("", "0"):
        return (
            "REPRO_NO_CACHE is set: the benchmark measures the cached "
            "simulator users run; unset it"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no simulator sources under {ROOT / 'src' / 'repro'}"
    return None


# -- compare -------------------------------------------------------------


def _load_records(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(parent_path: str, change_path: str) -> int:
    """Apply BENCHMARK.json's bounds to two sets of runs; 1 on a finding."""
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    sides = [_load_records(parent_path), _load_records(change_path)]
    grouped: list[dict] = [{}, {}]
    for side, records in zip(grouped, sides):
        for record in records:
            key = record["workload"]
            entry = side.setdefault(key, {"attempted": 0, "failed": 0})
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            for name, metric in record["metrics"].items():
                entry.setdefault(name, []).append(metric["value"])
    rows = []
    findings = 0
    workloads = [
        w for w in WORKLOAD_NAMES if w in grouped[0] or w in grouped[1]
    ]
    for workload in workloads:
        parent, change = grouped[0].get(workload), grouped[1].get(workload)
        if parent is None or change is None:
            rows.append([workload, "*", "-", "-", "-", "-", "missing"])
            findings += 1
            continue
        ratios = [
            side["failed"] / side["attempted"] if side["attempted"] else 0.0
            for side in (parent, change)
        ]
        failed_verdict = "regression" if ratios[1] > ratios[0] else "ok"
        findings += failed_verdict != "ok"
        rows.append([
            workload, FAILED_RATIO, f"{ratios[0]:.4g}", f"{ratios[1]:.4g}",
            "-", "0", failed_verdict,
        ])
        names = [
            name for name in (*END_TO_END, *layer_names)
            if name in parent or name in change
        ]
        for name in names:
            if name not in parent or name not in change:
                rows.append([workload, name, "-", "-", "-", "-", "missing"])
                findings += 1
                continue
            cells = [
                f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={len(values)}"
                for values in (parent[name], change[name])
                for q in [quartiles(values)]
            ]
            if name in bounds:
                spec = bounds[name]
                result, worse, _ = verdict(
                    parent[name], change[name], spec["better"], spec["bound"]
                )
                findings += result != "ok"
                rows.append([
                    workload, name, *cells, f"{100 * worse:+.1f}%",
                    f"{100 * spec['bound']:.0f}%", result,
                ])
            else:
                rows.append([workload, name, *cells, "-", "-", "-"])
    print(_table(
        ["workload", "metric", "parent median [q1, q3]",
         "change median [q1, q3]", "worse by", "bound", "verdict"],
        rows,
    ))
    return 1 if findings else 0


# -- entry point ---------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.jsonl CHANGE.jsonl",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds of ops per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="measure per-layer metrics with a traced replay")
    parser.add_argument("--json", metavar="PATH",
                        help="append one JSON record per workload run")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced spans as a Chrome trace")
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds the traffic)")
    problem = _environment_error()
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2
    header = run_header(args.seed, args.seconds)
    print(
        f"# commit {header['commit']}  python {header['python']}  "
        f"nproc {header['nproc']}  seed {args.seed}  "
        f"seconds {args.seconds:g}"
    )
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    try:
        for name in names:
            record = run_workload(
                name, args.seed, args.seconds, trace=bool(args.trace),
                want_spans=bool(args.trace_out),
            )
            records.append(record)
            print(f"# sizes {json.dumps(record['sizes'])}")
            print_record(record)
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 3
    if args.json:
        with open(args.json, "a") as handle:
            for record in records:
                saved = {
                    key: value for key, value in record.items()
                    if key != "spans"
                }
                handle.write(json.dumps({**header, **saved}) + "\n")
    if args.trace_out:
        rounds = [
            (f"{record['workload']} round {index}", spans)
            for record in records
            for index, spans in enumerate(record["spans"], start=1)
        ]
        trace = chrome_trace(rounds, header)
        Path(args.trace_out).write_text(json.dumps(trace))
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
