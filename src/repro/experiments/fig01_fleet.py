"""Figure 1: fleet-wide GPUs-per-parameter and memory utilization."""

from __future__ import annotations

from dataclasses import asdict

from repro.analysis.fleet import summarize_fleet, synthesize_fleet
from repro.experiments.base import ClaimCheck, ExperimentResult

EXPERIMENT_ID = "fig1"


def run(num_jobs: int = 120, seed: int = 2024) -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    jobs = synthesize_fleet(num_jobs=num_jobs, seed=seed)
    summary = summarize_fleet(jobs)
    llm_jobs = sum(1 for job in jobs if job.workload == "llm")
    rows = [
        [
            "LLM",
            llm_jobs,
            f"{summary.llm_gpus_per_param:.3e}",
            f"{summary.llm_memory_utilization:.2f}",
        ],
        [
            "TTI/TTV",
            len(jobs) - llm_jobs,
            f"{summary.tti_gpus_per_param:.3e}",
            f"{summary.tti_memory_utilization:.2f}",
        ],
    ]
    ratio = summary.gpus_per_param_ratio
    mem_ratio = summary.memory_utilization_ratio
    claims = [
        ClaimCheck(
            claim="TTI models use ~14x more GPUs per parameter than LLMs",
            paper="14x",
            measured=f"{ratio:.1f}x",
            holds=8.0 <= ratio <= 22.0,
        ),
        ClaimCheck(
            claim="TTI memory utilization ~1.4x (roughly 10pp higher)",
            paper="1.4x",
            measured=f"{mem_ratio:.2f}x",
            holds=1.2 <= mem_ratio <= 1.6,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Fleet-wide GPUs/parameter and memory utilization",
        headers=["workload", "jobs", "gpus/param", "mem util"],
        rows=rows,
        claims=claims,
        notes=[
            "Fleet telemetry is proprietary; jobs are synthesized to the "
            "published aggregate ratios (see DESIGN.md substitutions).",
        ],
        values={
            "jobs": {"llm": llm_jobs, "tti": len(jobs) - llm_jobs},
            **asdict(summary),
            "gpus_per_param_ratio": ratio,
            "memory_utilization_ratio": mem_ratio,
        },
    )
