"""Distributed scaling + future hardware (Section V projection).

Section V closes the paper by arguing that multi-modal generation will
need new system designs as models and sequence lengths grow — and that
future hardware changes the arithmetic.  This experiment quantifies
that projection with the distributed execution layer: Stable Diffusion
2.1 and Make-A-Video are tensor-parallel sharded across 1/2/4/8 GPUs on
the A100 machine the paper characterized and on an H100 successor, with
communication priced by the interconnect model.

Checked claims: sharding one denoising pass hits diminishing returns
quickly (TP efficiency decays monotonically — the per-kernel work is
already small at inference batch sizes, so launch overhead and
collectives eat the gains); communication's share of latency grows with
the group size until it rivals compute at TP=8 (the interconnect, not
the GPU, limits sharded inference); a faster fabric (NVLink4 vs
NVLink3) cuts absolute collective time; and generation-per-GPU is
maximized at world size 1, which is why serving fleets scale out with
replicas rather than sharding inference (the Figure 1 fleet argument).
"""

from __future__ import annotations

from repro.distributed.scaling import ScalingPoint, strong_scaling
from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import model_instance

EXPERIMENT_ID = "dist1"

WORLDS = (1, 2, 4, 8)
MACHINES = ("dgx-a100-80g", "dgx-h100")
# (display name, suite registry name): the shared suite instances mean
# the A100 profiles are the very traces Figure 5/6 already captured.
MODELS = (
    ("StableDiffusion", "stable_diffusion"),
    ("MakeAVideo", "make_a_video"),
)


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    rows: list[list[object]] = []
    sweeps: dict[tuple[str, str], list[ScalingPoint]] = {}
    values: dict = {}
    for model_name, registry_name in MODELS:
        for machine in MACHINES:
            points = strong_scaling(
                model_instance(registry_name), machine, WORLDS
            )
            sweeps[(model_name, machine)] = points
            values[f"{registry_name}|{machine}"] = {
                str(point.world): {
                    "time_s": point.time_s,
                    "compute_time_s": point.compute_time_s,
                    "comm_time_s": point.comm_time_s,
                    "efficiency": point.efficiency,
                }
                for point in points
            }
            for point in points:
                rows.append(
                    [
                        model_name,
                        machine,
                        point.world,
                        f"{point.time_s * 1e3:.0f}",
                        f"{point.compute_time_s * 1e3:.0f}",
                        f"{point.comm_time_s * 1e3:.0f}",
                        f"{point.efficiency * 100:.0f}%",
                    ]
                )

    def monotone_decreasing(points: list[ScalingPoint]) -> bool:
        effs = [point.efficiency for point in points]
        return all(a >= b for a, b in zip(effs, effs[1:]))

    all_monotone = all(monotone_decreasing(pts) for pts in sweeps.values())
    sd_a100 = sweeps[("StableDiffusion", "dgx-a100-80g")]
    sd_h100 = sweeps[("StableDiffusion", "dgx-h100")]
    mav_a100 = sweeps[("MakeAVideo", "dgx-a100-80g")]
    mav_h100 = sweeps[("MakeAVideo", "dgx-h100")]
    h100_speedup = mav_a100[0].time_s / mav_h100[0].time_s
    comm_shares_grow = all(
        points[1].comm_fraction < points[-1].comm_fraction
        for points in sweeps.values()
    )
    comm_at_8 = sd_h100[-1].comm_fraction
    fabric_cuts_comm = (
        sd_h100[-1].comm_time_s < sd_a100[-1].comm_time_s
        and mav_h100[-1].comm_time_s < mav_a100[-1].comm_time_s
    )
    per_gpu_best = all(
        max(
            range(len(points)),
            key=lambda i: points[i].speedup / points[i].world,
        ) == 0
        for points in sweeps.values()
    )
    claims = [
        ClaimCheck(
            claim="tensor-parallel efficiency decays monotonically with "
            "device count for both generators on both machines",
            paper="diminishing returns to sharding one inference",
            measured=(
                f"SD@A100 efficiency {sd_a100[0].efficiency:.2f} -> "
                f"{sd_a100[-1].efficiency:.2f}; MAV@A100 "
                f"{mav_a100[0].efficiency:.2f} -> "
                f"{mav_a100[-1].efficiency:.2f}"
            ),
            holds=all_monotone,
        ),
        ClaimCheck(
            claim="H100-generation hardware speeds up video generation "
            "more than another A100 would",
            paper="future hardware shifts the bottleneck (Section V)",
            measured=(
                f"MAV single-GPU: {mav_a100[0].time_s:.2f}s on A100 vs "
                f"{mav_h100[0].time_s:.2f}s on H100 ({h100_speedup:.2f}x)"
            ),
            holds=h100_speedup > 1.5,
        ),
        ClaimCheck(
            claim="communication's share of latency grows with group "
            "size until it rivals compute at TP=8 — sharded inference "
            "is interconnect-limited",
            paper="new system designs needed as models scale (Sec. V)",
            measured=(
                f"comm share grows TP=2 -> TP=8 in all 4 sweeps; "
                f"SD@H100 TP=8 comm share {comm_at_8 * 100:.0f}%"
            ),
            holds=comm_shares_grow and comm_at_8 > 0.3,
        ),
        ClaimCheck(
            claim="a faster fabric (NVLink4 vs NVLink3) cuts absolute "
            "collective time at TP=8",
            paper="interconnect bandwidth is a lever (Section V)",
            measured=(
                f"SD TP=8 comm: {sd_a100[-1].comm_time_s * 1e3:.0f} ms "
                f"(A100) vs {sd_h100[-1].comm_time_s * 1e3:.0f} ms "
                f"(H100)"
            ),
            holds=fabric_cuts_comm,
        ),
        ClaimCheck(
            claim="generation throughput per GPU is maximized at world "
            "size 1 — fleets should scale out with replicas, not shard "
            "latency-bound inference",
            paper="Figure 1 fleets run single-GPU replicas",
            measured="per-GPU throughput peaks at 1 GPU in all 4 sweeps",
            holds=per_gpu_best,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Strong scaling of SD 2.1 and Make-A-Video across GPUs "
        "and hardware generations",
        headers=["model", "machine", "GPUs", "latency ms", "compute ms",
                 "comm ms", "efficiency"],
        rows=rows,
        claims=claims,
        values=values,
    )
