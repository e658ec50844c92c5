"""Table II: end-to-end Flash-Attention speedup across the suite."""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import all_profiles
from repro.models.registry import DISPLAY_NAMES
from repro.profiler.breakdown import speedup_report

EXPERIMENT_ID = "table2"

PAPER_SPEEDUPS = {
    "llama": 1.52,
    "imagen": 1.22,
    "stable_diffusion": 1.67,
    "muse": 1.11,
    "parti": 1.17,
    "prod_image": 1.04,
    "make_a_video": 1.06,
    "phenaki": 1.15,
}


def measured_speedups() -> dict[str, float]:
    """End-to-end Flash-Attention speedup per suite model."""
    return {
        name: speedup_report(baseline.trace, flash.trace).end_to_end_speedup
        for name, (baseline, flash) in all_profiles().items()
    }


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    measured = measured_speedups()
    rows = [
        [
            DISPLAY_NAMES[name],
            f"{PAPER_SPEEDUPS[name]:.2f}x",
            f"{measured[name]:.2f}x",
            f"{(measured[name] - PAPER_SPEEDUPS[name]):+.2f}",
        ]
        for name in measured
    ]
    absolute_close = all(
        abs(measured[name] - PAPER_SPEEDUPS[name]) <= 0.12
        for name in measured
    )
    # Ordering: the paper's strongest structural facts.
    sd_highest = measured["stable_diffusion"] == max(measured.values())
    llama_second = measured["llama"] == max(
        value for name, value in measured.items()
        if name != "stable_diffusion"
    )
    prod_and_mav_lowest = set(
        sorted(measured, key=measured.get)[:2]
    ) == {"prod_image", "make_a_video"}
    spread_ok = (
        1.0 <= min(measured.values()) <= 1.08
        and 1.4 <= max(measured.values()) <= 1.9
    )
    claims = [
        ClaimCheck(
            claim="per-model speedups within ±0.12 of Table II",
            paper="1.04x-1.67x",
            measured=", ".join(
                f"{DISPLAY_NAMES[n]} {v:.2f}" for n, v in measured.items()
            ),
            holds=absolute_close,
        ),
        ClaimCheck(
            claim="Stable Diffusion gains the most end-to-end",
            paper="1.67x (max)",
            measured=f"{measured['stable_diffusion']:.2f}x",
            holds=sd_highest,
        ),
        ClaimCheck(
            claim="LLaMA gains second-most",
            paper="1.52x",
            measured=f"{measured['llama']:.2f}x",
            holds=llama_second,
        ),
        ClaimCheck(
            claim="Prod Image and Make-A-Video gain the least",
            paper="1.04x / 1.06x",
            measured=(
                f"{measured['prod_image']:.2f}x / "
                f"{measured['make_a_video']:.2f}x"
            ),
            holds=prod_and_mav_lowest,
        ),
        ClaimCheck(
            claim="speedups span ~4-67%",
            paper="1.04x-1.67x",
            measured=(
                f"{min(measured.values()):.2f}x-{max(measured.values()):.2f}x"
            ),
            holds=spread_ok,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="End-to-end speedup of Flash Attention vs baseline",
        headers=["model", "paper", "measured", "delta"],
        rows=rows,
        claims=claims,
        values=measured,
    )
