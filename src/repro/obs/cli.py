"""``python -m repro.obs`` — summarize and query telemetry files.

Subcommands over a saved telemetry JSONL file
(:func:`repro.obs.export.save_telemetry`):

* ``summary FILE`` — header facts, counter totals, span terminal
  states, fleet-event counts.
* ``spans FILE [--request N] [--state S] [--limit K]`` — print
  request spans event by event.
* ``metrics FILE [--name NAME]`` — list series, or print one
  series' samples.
* ``alerts FILE --deadline M=S ... [--objective ...]`` — evaluate
  burn-rate rules and print firings.
* ``perfetto FILE -o OUT.json`` — write the Chrome-trace rendering
  for https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.chrome_trace import write_chrome_trace
from repro.obs.alerts import BurnRateRule, evaluate_alerts
from repro.obs.export import load_telemetry
from repro.obs.perfetto import telemetry_to_chrome_trace
from repro.obs.telemetry import FLEET_COUNTERS, TelemetryLog
from repro.serving.slo import deadline_for


def _parse_deadlines(
    pairs: list[str],
) -> dict[str, float] | float:
    """``model=seconds`` pairs, or a single bare scalar."""
    if len(pairs) == 1 and "=" not in pairs[0]:
        return float(pairs[0])
    deadlines: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(
                f"deadline {pair!r} is not model=seconds"
            )
        model, _, value = pair.partition("=")
        deadlines[model] = float(value)
    return deadlines


def non_negative_int(text: str) -> int:
    """argparse type for counts: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _summary(log: TelemetryLog) -> str:
    lines = [
        f"pools: {', '.join(log.pools)} "
        f"({len(log.server_pools)} servers)",
        f"makespan: {log.makespan_s:.2f} s, sampled every "
        f"{log.sample_interval_s:g} s "
        f"({len(log.series[0].times) if log.series else 0} samples)",
    ]
    table = log.span_table
    states = Counter(state for _, _, _, state, _ in table.terminals())
    unsettled = len(table) - sum(states.values())
    if unsettled:
        states["open"] = unsettled
    terminal = ", ".join(
        f"{state}={count}" for state, count in sorted(states.items())
    )
    lines.append(f"spans: {len(table)} ({terminal})")
    counters = ", ".join(
        f"{name}={log.counter_final(name):g}"
        for name in FLEET_COUNTERS
    )
    lines.append(f"counters: {counters}")
    kinds = Counter(event.kind for event in log.events)
    if kinds:
        lines.append("fleet events: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items())
        ))
    else:
        lines.append("fleet events: none")
    return "\n".join(lines)


def _spans(log: TelemetryLog, args: argparse.Namespace) -> str:
    table = log.span_table
    rids = table.request_ids
    if args.request is not None:
        try:
            rids = (log.span(args.request).request_id,)
        except ValueError as error:  # no span for that request id
            raise SystemExit(str(error)) from None
    if args.state is not None:
        settled = {
            table.request_ids[index]: state
            for index, _, _, state, _ in table.terminals()
        }
        rids = tuple(
            rid for rid in rids
            if settled.get(rid, "open") == args.state
        )
    lines: list[str] = []
    for span in map(table.span, rids[: args.limit]):
        lines.append(
            f"request {span.request_id} ({span.model}) -> "
            f"{span.state}"
        )
        for event in span.events:
            attrs = " ".join(
                f"{key}={value}"
                for key, value in sorted(event.attrs.items())
            )
            lines.append(
                f"  {event.ts_s:10.3f}  {event.state:<9} {attrs}"
            )
    shown = min(len(rids), args.limit)
    lines.append(f"({shown} of {len(rids)} spans shown)")
    return "\n".join(lines)


def _metrics(log: TelemetryLog, args: argparse.Namespace) -> str:
    if args.name is None:
        lines = [
            f"{series.kind:<8} {series.name} "
            f"(final {series.final:g}, peak {series.peak:g})"
            for series in log.series
        ]
        lines.extend(
            f"histogram {histogram.name} "
            f"({histogram.total} observations)"
            for histogram in log.histograms
        )
        return "\n".join(lines)
    series = log.series_named(args.name)
    return "\n".join(
        f"{ts:10.3f}  {value:g}"
        for ts, value in zip(series.times, series.values)
    )


def _alerts(log: TelemetryLog, args: argparse.Namespace) -> str:
    deadlines = _parse_deadlines(args.deadline)
    rule = BurnRateRule(
        name="cli", objective=args.objective,
        long_window_s=args.long_window,
        short_window_s=args.short_window,
        threshold=args.threshold,
    )
    try:
        if isinstance(deadlines, dict):  # every pair, used or not
            for model in deadlines:
                deadline_for(deadlines, model)
        firings = evaluate_alerts(log, deadlines, (rule,))
    except ValueError as error:  # a deadline missing or not positive
        raise SystemExit(str(error)) from None
    if not firings:
        return "no firings"
    return "\n".join(
        f"{firing.rule} [{firing.severity}] "
        f"{firing.start_s:.1f}s..{firing.end_s:.1f}s "
        f"(peak burn {firing.peak_burn:.1f}x)"
        for firing in firings
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize and query fleet telemetry files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="header facts and record counts"
    )
    p_summary.add_argument("file")

    p_spans = sub.add_parser("spans", help="print request spans")
    p_spans.add_argument("file")
    p_spans.add_argument("--request", type=int, default=None)
    p_spans.add_argument("--state", default=None)
    p_spans.add_argument("--limit", type=non_negative_int, default=10)

    p_metrics = sub.add_parser(
        "metrics", help="list series or print one"
    )
    p_metrics.add_argument("file")
    p_metrics.add_argument("--name", default=None)

    p_alerts = sub.add_parser(
        "alerts", help="evaluate a burn-rate rule"
    )
    p_alerts.add_argument("file")
    p_alerts.add_argument(
        "--deadline", action="append", required=True,
        help="model=seconds (repeatable) or one bare scalar",
    )
    p_alerts.add_argument("--objective", type=float, default=0.999)
    p_alerts.add_argument(
        "--long-window", type=float, default=300.0
    )
    p_alerts.add_argument(
        "--short-window", type=float, default=60.0
    )
    p_alerts.add_argument(
        "--threshold", type=float, default=10.0
    )

    p_perfetto = sub.add_parser(
        "perfetto", help="write a Chrome-trace rendering"
    )
    p_perfetto.add_argument("file")
    p_perfetto.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    log = load_telemetry(args.file)
    if args.command == "summary":
        print(_summary(log))
    elif args.command == "spans":
        print(_spans(log, args))
    elif args.command == "metrics":
        print(_metrics(log, args))
    elif args.command == "alerts":
        print(_alerts(log, args))
    elif args.command == "perfetto":
        path = write_chrome_trace(
            telemetry_to_chrome_trace(log), args.output
        )
        print(f"wrote {path}")
    return 0
