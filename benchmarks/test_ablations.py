"""Ablation benchmarks for the cost-model design choices DESIGN.md
calls out.

Each ablation perturbs one tuning constant and reports how the paper's
headline quantities move — showing which conclusions are robust and
which depend on calibration.
"""

import pytest

from repro.hw.spec import A100_80GB
from repro.ir.context import AttentionImpl
from repro.kernels.base import TuningConstants
from repro.models.make_a_video import MakeAVideo
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.breakdown import speedup_report, temporal_spatial_report
from repro.profiler.profiler import profile_model
from repro.reporting.table import render_table


def _small_sd():
    return StableDiffusion(StableDiffusionConfig(denoising_steps=4))


def _sd_speedup(tuning: TuningConstants, gpu=A100_80GB) -> float:
    model = _small_sd()
    baseline = profile_model(model, gpu=gpu, tuning=tuning)
    flash = profile_model(
        model, gpu=gpu, attention_impl=AttentionImpl.FLASH, tuning=tuning
    )
    return speedup_report(baseline.trace, flash.trace).end_to_end_speedup


def test_ablation_flash_tile_size(benchmark):
    """Flash-Attention tile geometry barely moves the SD speedup —
    the win comes from traffic removal, not tiling details."""

    def sweep():
        rows = []
        for tile_q in (64, 128, 256):
            tuning = TuningConstants(flash_tile_q=tile_q)
            rows.append([tile_q, f"{_sd_speedup(tuning):.3f}x"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(["flash tile_q", "SD e2e speedup"], rows,
                       title="Ablation: flash tile size"))
    speedups = [float(row[1][:-1]) for row in rows]
    assert max(speedups) - min(speedups) < 0.2


def test_ablation_launch_overhead(benchmark):
    """The SD speedup survives a 4x launch-overhead swing: it is not a
    kernel-count artifact."""

    def sweep():
        rows = []
        for overhead_us in (1.0, 4.0, 16.0):
            gpu = A100_80GB.with_launch_overhead(overhead_us * 1e-6)
            rows.append(
                [overhead_us,
                 f"{_sd_speedup(TuningConstants(), gpu):.3f}x"]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(["launch overhead us", "SD e2e speedup"], rows,
                       title="Ablation: launch overhead"))
    speedups = [float(row[1][:-1]) for row in rows]
    assert all(value > 1.3 for value in speedups)


def test_ablation_temporal_locality_derate(benchmark):
    """Figure 11's time ratio is the one result that depends on the
    locality derate; the FLOP ratio never moves."""

    def sweep():
        model = MakeAVideo()
        rows = []
        for derate in (1.0, 6.0, 12.0):
            tuning = TuningConstants(temporal_locality_derate=derate)
            flash = profile_model(
                model, attention_impl=AttentionImpl.FLASH, tuning=tuning
            )
            report = temporal_spatial_report(flash.trace)
            rows.append(
                [derate, f"{report.time_ratio:.2f}",
                 f"{report.flop_ratio:.2f}"]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["derate", "temporal/spatial time", "spatial/temporal flops"],
        rows, title="Ablation: temporal locality derate",
    ))
    flop_ratios = {row[2] for row in rows}
    assert len(flop_ratios) == 1  # FLOPs independent of the derate
    times = [float(row[1]) for row in rows]
    assert times == sorted(times)  # time ratio grows with the derate
    assert times[0] > 1.0  # temporal slower even with no derate


def test_ablation_cache_geometry(benchmark):
    """The Figure 12 hit-rate gap persists across L1 geometries: it is
    a reuse property, not a capacity artifact."""
    from dataclasses import replace

    from repro.experiments.fig12_cache import attention_configs
    from repro.kernels.attention import simulate_attention_cache

    def sweep():
        spatial_info, temporal_info = attention_configs()
        rows = []
        for capacity_kib, ways in ((128, 4), (192, 4), (256, 8)):
            l1 = replace(
                A100_80GB.l1_per_sm,
                capacity_bytes=capacity_kib * 1024,
                associativity=ways,
            )
            gpu = replace(A100_80GB, l1_per_sm=l1)
            spatial = simulate_attention_cache(spatial_info, gpu)
            temporal = simulate_attention_cache(temporal_info, gpu)
            rows.append(
                [
                    f"{capacity_kib}KiB/{ways}w",
                    f"{spatial.gemm.l1.hit_rate:.2f}",
                    f"{temporal.gemm.l1.hit_rate:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["L1 geometry", "spatial gemm L1", "temporal gemm L1"], rows,
        title="Ablation: cache geometry",
    ))
    for row in rows:
        assert float(row[1]) > 0.3
        assert float(row[2]) < 0.1


def test_ablation_l2_residency_fraction(benchmark):
    """The prefill/decode asymmetry needs *some* cache model, but not a
    specific residency fraction."""
    from repro.experiments.table3_prefill_decode import (
        attention_kernel_speedup,
    )

    def sweep():
        # attention_kernel_speedup uses the default estimator; vary via
        # tuned contexts instead.
        from repro.ir.context import ExecutionContext
        from repro.ir.ops import AttentionKind, AttentionRole
        from repro.kernels.estimator import CostEstimator
        from repro.layers.attention import emit_attention_core

        rows = []
        for fraction in (0.25, 0.5, 1.0):
            tuning = TuningConstants(l2_residency_fraction=fraction)
            times = {}
            for impl in (AttentionImpl.BASELINE, AttentionImpl.FLASH):
                per_shape = {}
                for label, (seq_q, seq_kv) in {
                    "prefill": (4096, 4096), "decode": (1, 4096),
                }.items():
                    ctx = ExecutionContext(
                        attention_impl=impl,
                        estimator=CostEstimator(A100_80GB, tuning),
                    )
                    emit_attention_core(
                        ctx, batch=8, num_heads=8, seq_q=seq_q,
                        seq_kv=seq_kv, head_dim=64,
                        role=AttentionRole.SELF,
                        kind=AttentionKind.TOKEN,
                    )
                    per_shape[label] = ctx.trace.total_time_s
                times[impl] = per_shape
            prefill = (
                times[AttentionImpl.BASELINE]["prefill"]
                / times[AttentionImpl.FLASH]["prefill"]
            )
            decode = (
                times[AttentionImpl.BASELINE]["decode"]
                / times[AttentionImpl.FLASH]["decode"]
            )
            rows.append(
                [fraction, f"{prefill:.2f}x", f"{decode:.2f}x"]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["L2 residency fraction", "prefill FA speedup",
         "decode FA speedup"],
        rows, title="Ablation: L2 residency fraction",
    ))
    for row in rows:
        assert float(row[1][:-1]) > 1.5 * float(row[2][:-1])
    del attention_kernel_speedup
