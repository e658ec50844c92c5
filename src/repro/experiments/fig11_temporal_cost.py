"""Figure 11: temporal vs spatial attention time and FLOPs in
Make-A-Video.

The paper finds Temporal Attention takes ~2x the execution time of
Spatial Attention over a Make-A-Video inference while using ~9x fewer
FLOPs (FLOPs counted from the two attention matmuls).  We measure both
from the Make-A-Video trace; module time follows the hook attribution
(projections, rearranges and norms inside each attention module count
toward it).  Times are taken from the Flash-Attention profile —
Make-A-Video-era codebases run memory-efficient attention — and the
baseline-attention ratio is reported alongside.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import suite_profiles
from repro.profiler.breakdown import temporal_spatial_report

EXPERIMENT_ID = "fig11"


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    baseline, flash = suite_profiles("make_a_video")
    flash_report = temporal_spatial_report(flash.trace)
    baseline_report = temporal_spatial_report(baseline.trace)
    rows = [
        [
            "spatial",
            f"{flash_report.spatial_time_s*1e3:.1f}",
            f"{baseline_report.spatial_time_s*1e3:.1f}",
            f"{flash_report.spatial_matmul_flops/1e12:.2f}",
        ],
        [
            "temporal",
            f"{flash_report.temporal_time_s*1e3:.1f}",
            f"{baseline_report.temporal_time_s*1e3:.1f}",
            f"{flash_report.temporal_matmul_flops/1e12:.2f}",
        ],
    ]
    claims = [
        ClaimCheck(
            claim="temporal attention takes ~2x the time of spatial",
            paper="2x",
            measured=f"{flash_report.time_ratio:.2f}x (flash), "
            f"{baseline_report.time_ratio:.2f}x (baseline)",
            holds=1.5 <= flash_report.time_ratio <= 2.8,
        ),
        ClaimCheck(
            claim="temporal attention uses ~9x fewer FLOPs",
            paper="9x",
            measured=f"{flash_report.flop_ratio:.1f}x fewer",
            holds=6.0 <= flash_report.flop_ratio <= 14.0,
        ),
        ClaimCheck(
            claim="temporal is slower despite the FLOP deficit "
            "(a locality bottleneck, not a compute one)",
            paper="unique bottleneck",
            measured=(
                f"time ratio {flash_report.time_ratio:.2f} with "
                f"{flash_report.flop_ratio:.1f}x fewer FLOPs"
            ),
            holds=flash_report.time_ratio > 1.0
            and flash_report.flop_ratio > 1.0,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Temporal vs spatial attention over Make-A-Video inference",
        headers=[
            "attention", "module time ms (flash)",
            "module time ms (baseline)", "matmul TFLOPs",
        ],
        rows=rows,
        claims=claims,
        notes=[
            "Module time includes projections, rearranges and norms "
            "emitted by the attention modules (hook attribution).",
        ],
        values={
            impl: {
                **asdict(report),
                "time_ratio": report.time_ratio,
                "flop_ratio": report.flop_ratio,
            }
            for impl, report in (("flash", flash_report),
                                 ("baseline", baseline_report))
        },
    )
