"""Figure 4: FID-vs-parameters Pareto frontier of TTI models."""

from __future__ import annotations

from repro.analysis.pareto import FIGURE4_DATASET, pareto_frontier
from repro.experiments.base import ClaimCheck, ExperimentResult

EXPERIMENT_ID = "fig4"


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    frontier = pareto_frontier(FIGURE4_DATASET)
    frontier_names = {point.name for point in frontier}
    rows = [
        [
            point.name,
            point.architecture,
            f"{point.fid:.2f}",
            f"{point.parameters/1e9:.2f}B",
            "yes" if point.name in frontier_names else "",
        ]
        for point in sorted(FIGURE4_DATASET, key=lambda p: p.parameters)
    ]
    # The paper highlights Imagen, Stable Diffusion and Parti as
    # Pareto-optimal representatives of their architecture classes.
    highlighted = {"Imagen", "StableDiffusion", "Parti"}
    diffusion_on_frontier = [
        point for point in frontier if point.architecture == "diffusion"
    ]
    parti = next(p for p in FIGURE4_DATASET if p.name == "Parti")
    small_diffusion = min(
        (p for p in FIGURE4_DATASET
         if p.architecture == "diffusion" and p.fid <= parti.fid * 1.01),
        key=lambda p: p.parameters,
    )
    param_ratio = parti.parameters / small_diffusion.parameters
    claims = [
        ClaimCheck(
            claim="Imagen, Stable Diffusion and Parti lie on the frontier",
            paper="all three Pareto-optimal",
            measured=", ".join(sorted(frontier_names & highlighted)),
            holds=highlighted <= frontier_names,
        ),
        ClaimCheck(
            claim="diffusion gives higher quality per parameter",
            paper="diffusion dominates at small sizes",
            measured=(
                f"{len(diffusion_on_frontier)}/{len(frontier)} frontier "
                "points are diffusion"
            ),
            holds=len(diffusion_on_frontier) >= len(frontier) / 2,
        ),
        ClaimCheck(
            claim="Parti matches diffusion quality at ~4x the parameters",
            paper="4x",
            measured=(
                f"Parti {parti.parameters/1e9:.0f}B vs "
                f"{small_diffusion.name} "
                f"{small_diffusion.parameters/1e9:.1f}B = "
                f"{param_ratio:.1f}x"
            ),
            holds=3.0 <= param_ratio <= 10.0,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="FID vs parameters with Pareto frontier",
        headers=["model", "architecture", "FID", "params", "frontier"],
        rows=rows,
        claims=claims,
        notes=[
            "FID/parameter values are the previously reported numbers the "
            "paper plots; the frontier computation is reproduced here.",
        ],
        values={
            "points": {
                point.name: {"fid": point.fid, "parameters": point.parameters}
                for point in FIGURE4_DATASET
            },
            "frontier": sorted(frontier_names),
            "diffusion_on_frontier": len(diffusion_on_frontier),
            "parti_over_matching_diffusion_params": param_ratio,
        },
    )
