"""Figure 13: attention FLOPs vs frame count.

Spatial attention FLOPs grow linearly with frames (frames fold into the
batch); temporal attention FLOPs grow quadratically (frames are the
sequence).  The crossover sits at F = grid^2 and moves out with
resolution.
"""

from __future__ import annotations

from repro.analysis.scaling import crossover_frames, sweep_frame_counts
from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.ordered_sum import ordered_sum

EXPERIMENT_ID = "fig13"

FRAME_COUNTS = [4, 8, 16, 32, 64, 128, 256, 512]
GRIDS = (8, 16)


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    rows: list[list[object]] = []
    sweeps = {
        grid: sweep_frame_counts(FRAME_COUNTS, spatial_grid=grid)
        for grid in GRIDS
    }
    for grid, points in sweeps.items():
        for point in points:
            rows.append(
                [
                    f"{grid}x{grid}",
                    point.frames,
                    f"{point.spatial_flops/1e9:.2f}",
                    f"{point.temporal_flops/1e9:.2f}",
                    "temporal"
                    if point.temporal_flops > point.spatial_flops
                    else "spatial",
                ]
            )

    def growth(points, attribute):
        doubled = [
            getattr(b, attribute) / getattr(a, attribute)
            for a, b in zip(points, points[1:])
        ]
        return ordered_sum(doubled) / len(doubled)

    small = sweeps[GRIDS[0]]
    spatial_growth = growth(small, "spatial_flops")
    temporal_growth = growth(small, "temporal_flops")

    def measured_crossover(points):
        for point in points:
            if point.temporal_flops > point.spatial_flops:
                return point.frames
        return None

    crossover_small = measured_crossover(sweeps[GRIDS[0]])
    crossover_large = measured_crossover(sweeps[GRIDS[1]])
    predicted_small = crossover_frames(GRIDS[0])
    claims = [
        ClaimCheck(
            claim="spatial attention FLOPs scale linearly with frames",
            paper="linear",
            measured=f"x{spatial_growth:.2f} per frame doubling",
            holds=1.9 <= spatial_growth <= 2.1,
        ),
        ClaimCheck(
            claim="temporal attention FLOPs scale quadratically "
            "('exponentially' in the paper's phrasing)",
            paper="super-linear",
            measured=f"x{temporal_growth:.2f} per frame doubling",
            holds=3.8 <= temporal_growth <= 4.2,
        ),
        ClaimCheck(
            claim="temporal is cheaper at small frame counts but "
            "overtakes spatial as frames grow",
            paper="crossover exists",
            measured=(
                f"first temporal-dominant point at {crossover_small} "
                f"frames (predicted {predicted_small})"
            ),
            holds=crossover_small is not None
            and crossover_small >= predicted_small,
        ),
        ClaimCheck(
            claim="higher resolution prolongs the crossover point",
            paper="crossover moves out with resolution",
            measured=(
                f"{GRIDS[0]}x{GRIDS[0]}: {crossover_small} frames; "
                f"{GRIDS[1]}x{GRIDS[1]}: "
                f"{crossover_large or 'beyond sweep'}"
            ),
            holds=crossover_large is None
            or crossover_large > crossover_small,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Spatial vs temporal attention FLOPs as frame count grows",
        headers=["grid", "frames", "spatial GFLOPs", "temporal GFLOPs",
                 "dominant"],
        rows=rows,
        claims=claims,
        values={
            "flops": {
                str(grid): {
                    str(point.frames): {
                        "spatial": point.spatial_flops,
                        "temporal": point.temporal_flops,
                    }
                    for point in points
                }
                for grid, points in sweeps.items()
            },
            "growth_per_doubling": {
                "spatial": spatial_growth, "temporal": temporal_growth,
            },
            "crossover_frames": {
                str(GRIDS[0]): crossover_small,
                str(GRIDS[1]): crossover_large,
            },
        },
    )
