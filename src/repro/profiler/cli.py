"""Profiler CLI: ``python -m repro.profiler <model> [options]``.

Profiles one suite model on a simulated GPU and prints the component
summary, operator breakdown and (optionally) a chrome trace — the
one-command version of the paper's measurement loop.
"""

from __future__ import annotations

import argparse
import sys

from repro.chrome_trace import write_chrome_trace
from repro.hw.spec import PRESETS
from repro.ir.context import AttentionImpl
from repro.models.registry import build_model, suite_names
from repro.profiler.breakdown import breakdown, speedup_report
from repro.profiler.memory_footprint import (
    estimate_inference_memory,
    suite_kv_cache_bytes,
)
from repro.profiler.profiler import profile_both, profile_model
from repro.profiler.summary import render_summary
from repro.profiler.trace_export import to_chrome_trace
from repro.reporting.table import format_bytes, render_table


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.profiler",
        description="Profile a suite model on a simulated GPU.",
    )
    parser.add_argument(
        "model", choices=suite_names(), help="suite model to profile"
    )
    parser.add_argument(
        "--gpu", default="A100-80GB-SXM", choices=sorted(PRESETS),
        help="GPU preset",
    )
    parser.add_argument(
        "--attention", default="baseline",
        choices=[impl.value for impl in AttentionImpl],
        help="attention implementation",
    )
    parser.add_argument(
        "--batch", type=int, default=1, help="inference batch size"
    )
    parser.add_argument(
        "--compare-flash", action="store_true",
        help="profile baseline AND flash, print the speedup report",
    )
    parser.add_argument(
        "--save-trace", metavar="PATH",
        help="write a chrome-trace JSON (open in Perfetto)",
    )
    args = parser.parse_args(argv)

    gpu = PRESETS[args.gpu]
    model = build_model(args.model)
    if args.compare_flash:
        baseline, flash = profile_both(model, gpu=gpu, batch=args.batch)
        result = baseline
        report = speedup_report(baseline.trace, flash.trace)
        print(render_summary(model, baseline.trace))
        print()
        print(
            f"flash attention: {flash.total_time_s*1e3:.1f} ms "
            f"({report.end_to_end_speedup:.2f}x end-to-end, "
            f"{report.attention_module_speedup:.2f}x attention module)"
        )
    else:
        result = profile_model(
            model,
            gpu=gpu,
            attention_impl=AttentionImpl(args.attention),
            batch=args.batch,
        )
        print(render_summary(model, result.trace))

    print()
    fractions = breakdown(result.trace).fractions()
    rows = [
        [category.value, f"{fraction*100:.1f}%"]
        for category, fraction in sorted(
            fractions.items(), key=lambda item: -item[1]
        )
    ]
    print(render_table(["operator", "share"], rows,
                       title="Operator breakdown"))

    footprint = estimate_inference_memory(
        model,
        result.trace,
        kv_bytes=suite_kv_cache_bytes(args.model, model),
    )
    print()
    print(
        f"memory: params {format_bytes(footprint.parameter_bytes)}, "
        f"peak transient {format_bytes(footprint.peak_transient_bytes)} "
        f"({footprint.peak_event}), kv "
        f"{format_bytes(footprint.kv_cache_bytes)} -> "
        f"{footprint.utilization(gpu)*100:.1f}% of {gpu.name}"
    )
    if args.save_trace:
        path = write_chrome_trace(
            to_chrome_trace(result.trace), args.save_trace
        )
        print(f"trace written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
