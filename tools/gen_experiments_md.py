"""Generate EXPERIMENTS.md from the live experiment harness.

Run from the repo root::

    PYTHONPATH=src python tools/gen_experiments_md.py > EXPERIMENTS.md

:func:`experiments_md` is also what ``tests/golden`` pins the file
with, and what ``pytest tests/golden --update-golden`` rewrites it
through.
"""
from repro.experiments.runner import run_experiments

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by
`python -m repro.experiments all` (or `pytest benchmarks/ --benchmark-only`).
All numbers below were produced by this repository's analytical A100 model;
absolute values are simulation estimates, and the claim checks verify the
*shape* of each result against the published values (who wins, by roughly
what factor, where crossovers fall).

Substitutions for hardware/data we do not have are listed in DESIGN.md.
Re-generate this file with `python tools/gen_experiments_md.py > EXPERIMENTS.md`.

"""

NOTES = {
    "table2": (
        "Per-model deltas are within ±0.12 of Table II. The one ordering "
        "deviation vs. the paper: our Imagen (1.14x) lands below Parti/Muse "
        "instead of between LLaMA and Parti — the SR-stage weighting of our "
        "Imagen cascade under-represents the base model's attention share."
    ),
    "fig11": (
        "Module times are reported from the Flash-Attention profile "
        "(Make-A-Video-era stacks run memory-efficient attention); the "
        "baseline-attention ratio is shown alongside in the table. The "
        "temporal-locality bandwidth derate (TuningConstants."
        "temporal_locality_derate = 6) is calibrated so the measured ~2x "
        "time ratio emerges; the ablation benchmark sweeps it."
    ),
    "fig7": (
        "The paper states sequence length 'can vary up to 4x'; within one "
        "UNet pass our SD profile spans 256..4096 (16x across attention "
        "levels, >=4x within the window Figure 7 displays)."
    ),
    "fig5": (
        "Capacity intensity is evaluated per sequential generation "
        "iteration (one denoise step / one decode step), which is the "
        "reading under which the paper's 'up to 100x' and the memory-bound "
        "placement of autoregressive decoding are simultaneously true."
    ),
    "serve1": (
        "Fleet-level extrapolation, not a paper table: profiled service "
        "times feed the discrete-event fleet simulator (docs/SERVING.md) "
        "at 70% offered load. Deadlines are 3x each model's Flash service "
        "time; all scenarios share one seed-pinned arrival stream, so "
        "rows differ only in fleet configuration and injected faults."
    ),
    "serve3": (
        "Not a paper table: a ServeGen-style (arXiv:2505.09999) "
        "client-structured workload versus its poissonized twin at "
        "identical offered load (docs/TRAFFIC.md). The admission front "
        "door (token bucket at 1.05x the declared average rate) raises "
        "goodput under client-structured traffic and lowers it under "
        "Poisson — the policy ranking flips with the traffic model, "
        "pinned exactly by tests/golden/serve3.json."
    ),
    "serve4": (
        "Not a paper table: a correlated-failure case study "
        "(docs/CHAOS.md). A zone outage plus a degraded rack link "
        "compile into one campaign that every chaos arm replays. "
        "The overload-tuned protection stack alone *hurts* "
        "under correlated recovery — hedges and brownout react to the "
        "post-outage backlog they did not cause — while recovery "
        "orchestration (cordon/drain, staggered re-admission, warm-"
        "standby promotion) restores goodput to within a point of the "
        "unprotected arm's pre-chaos level. Every arm passes the "
        "chaos invariant checker; pinned by tests/golden/serve4.json."
    ),
    "obs1": (
        "Not a paper table: an observability case study "
        "(docs/OBSERVABILITY.md). A straggler window degrades p99 on "
        "two identically loaded fleets; the flight-recorder telemetry "
        "— breaker-open intervals from fleet events, queue-depth "
        "series, tail-span overlap — attributes the regression to "
        "breaker flapping rather than queue buildup, and the "
        "page-severity burn-rate alert fires on the flappy arm only. "
        "A blind (telemetry-off) run pins that recording changes "
        "nothing; the attribution chain is pinned by "
        "tests/golden/obs1.json."
    ),
}



def experiments_md(results) -> str:
    """The text of EXPERIMENTS.md for the battery's ``results``."""
    parts = [HEADER]
    for result in results:
        parts.append(f"## {result.experiment_id}: {result.title}\n")
        parts.append("```text")
        parts.append(result.render())
        parts.append("```\n")
        if result.experiment_id in NOTES:
            parts.append(
                f"**Reproduction note.** {NOTES[result.experiment_id]}\n"
            )
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    print(experiments_md(run_experiments(["all"])), end="")
