"""Golden-trace summaries: the numbers the regression suite pins.

The experiments check *claims* (shape, ordering, coarse bands) so that
honest recalibration does not break them; the golden suite is the
opposite contract: it pins exact numeric outputs of the performance
model — Table I parameter counts and latencies, Table II speedups,
Figure 6 breakdown shares, Figure 12 cache hit rates, dist1 scaling
efficiencies — to committed JSON files, so a change to any kernel-cost
constant that silently shifts the paper numbers fails tier-1 instead of
drifting unnoticed.

Each ``*_summary`` function returns a JSON-serializable nested dict of
pure floats; :func:`compare_summaries` diffs two such trees with a
tight relative tolerance (1e-9 by default — loose enough for libm
variation across platforms, tight enough that any real model change
trips it).  Refresh the committed files with ``pytest tests/golden
--update-golden`` after an *intentional* model change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

from repro.distributed.scaling import strong_scaling
from repro.experiments.suite_cache import all_profiles, model_instance
from repro.ir.ops import OpCategory
from repro.kernels.base import TuningConstants
from repro.models.registry import suite_names
from repro.profiler.breakdown import breakdown, speedup_report

DIST1_MODELS = ("stable_diffusion", "make_a_video")
DIST1_MACHINES = ("dgx-a100-80g", "dgx-h100")
DIST1_WORLDS = (1, 2, 4, 8)


def table1_summary() -> dict:
    """Generator parameter counts and baseline latencies (Table I)."""
    from repro.experiments.table1_taxonomy import (
        _TTI_MODELS,
        generator_params,
    )

    profiles = all_profiles()
    return {
        name: {
            "generator_params": float(generator_params(name)),
            "baseline_latency_s": profiles[name][0].total_time_s,
            "baseline_flops": profiles[name][0].trace.total_flops,
        }
        for name in _TTI_MODELS
    }


def table2_summary() -> dict:
    """End-to-end Flash speedup per suite model (Table II)."""
    return {
        name: speedup_report(
            baseline.trace, flash.trace
        ).end_to_end_speedup
        for name, (baseline, flash) in all_profiles().items()
    }


def fig6_summary() -> dict:
    """Operator-category time shares per model and impl (Figure 6)."""
    summary: dict = {}
    for name, (baseline, flash) in all_profiles().items():
        summary[name] = {
            impl: {
                category.value: fraction
                for category, fraction in sorted(
                    breakdown(result.trace).fractions().items(),
                    key=lambda item: item[0].value,
                )
            }
            for impl, result in (("baseline", baseline),
                                 ("flash", flash))
        }
    return summary


def dist1_summary(
    tuning: TuningConstants | None = None,
    *,
    models: tuple[str, ...] = DIST1_MODELS,
    machines: tuple[str, ...] = DIST1_MACHINES,
    worlds: tuple[int, ...] = DIST1_WORLDS,
) -> dict:
    """Strong-scaling latencies and efficiencies (dist1).

    ``tuning`` exists so the regression suite can demonstrate that a
    perturbed kernel-cost constant produces a summary that *fails* the
    golden comparison.
    """
    kwargs = {} if tuning is None else {"tuning": tuning}
    summary: dict = {}
    for name in models:
        for machine in machines:
            points = strong_scaling(
                model_instance(name), machine, worlds, **kwargs
            )
            summary[f"{name}|{machine}"] = {
                str(point.world): {
                    "time_s": point.time_s,
                    "efficiency": point.efficiency,
                    "comm_time_s": point.comm_time_s,
                }
                for point in points
            }
    return summary


def fig12_summary() -> dict:
    """Per-kernel L1/L2 hit rates of the attention replay (Figure 12).

    Pins ``simulate_attention_cache(...).as_dict()`` for fig12's
    spatial and temporal configs on the geometry fig12 renders
    (A100-80GB, 4 simulated SMs) and on H100-80GB with 7 SMs.  fig12's
    table rounds to 0.1% and its claims are ratios; here one hit more
    or fewer in any stream moves a rate past the comparison tolerance.
    """
    from repro.experiments.fig12_cache import attention_configs
    from repro.hw.spec import A100_80GB, H100_80GB
    from repro.kernels.attention import simulate_attention_cache

    spatial, temporal = attention_configs()
    return {
        f"{spec.name}|{num_sms}": {
            label: simulate_attention_cache(
                info, spec, num_sms=num_sms
            ).as_dict()
            for label, info in (("spatial", spatial),
                                ("temporal", temporal))
        }
        for spec, num_sms in ((A100_80GB, 4), (H100_80GB, 7))
    }


def serve1_summary() -> dict:
    """Fleet-serving latency percentiles and SLO accounting (serve1).

    Pins the seeded fleet simulation: per-model p50/p95, goodput,
    violation seconds and availability for the flash fleet with and
    without the injected crash.  The discrete-event simulator is
    deterministic under a fixed seed, so these are exact numbers, not
    distributions.
    """
    from repro.experiments.serve1_fleet import (
        A100_SERVERS,
        CRASH,
        MODELS,
        SHARES,
        _pool,
        _scenario,
    )
    from repro.serving.faults import FaultSchedule
    from repro.serving.workload import suite_mix_from_profiles

    flash_service = suite_mix_from_profiles(all_profiles(), SHARES).service_s
    deadlines = {name: 3.0 * flash_service[name] for name in MODELS}
    summary: dict = {}
    for label, faults in (
        ("flash", FaultSchedule()),
        ("flash_crash", FaultSchedule(crashes=(CRASH,))),
    ):
        pools = [
            _pool("a100", "dgx-a100-80g", A100_SERVERS, flash_service)
        ]
        report, slo = _scenario(
            flash_service, pools, faults=faults, deadlines=deadlines
        )
        summary[label] = {
            "goodput": slo.goodput,
            "violation_s": slo.violation_s,
            "availability": slo.availability,
            "completion_rate": report.completion_rate,
            "per_model": {
                entry.model: {
                    "p50_s": entry.p50_s,
                    "p95_s": entry.p95_s,
                }
                for entry in slo.per_model
            },
        }
    return summary


def serve2_summary() -> dict:
    """Resilience-scenario accounting under overload (serve2).

    Pins the five protection configurations of the serve2 experiment:
    p99, goodput and the full shed/hedge/degraded decomposition per
    scenario.  This is the regression contract for the resilience
    layer — any change to admission, breaker, hedging or brownout
    mechanics that shifts the comparison fails here, with the serve1
    golden simultaneously guaranteeing the all-mechanisms-off
    simulator did not move.
    """
    from repro.experiments.serve2_resilience import _run_scenarios
    from repro.serving.slo import percentile

    summary: dict = {}
    for label, report, slo in _run_scenarios():
        latencies = report.latency_s.tolist()
        stats = report.resilience
        summary[label] = {
            "p50_s": percentile(latencies, 50.0),
            "p99_s": percentile(latencies, 99.0),
            "goodput": slo.goodput,
            "completed": float(report.completed_count),
            "failed": float(report.failed_count),
            "shed": float(report.shed_count),
            "hedges_launched": float(stats.hedges_launched),
            "hedge_wins": float(stats.hedge_wins),
            "hedge_wasted_s": stats.hedge_wasted_s,
            "breaker_opens": float(stats.breaker_opens),
            "degraded": float(stats.degraded_completions),
            "quality_debt": slo.quality_debt,
            "rung_completions": {
                str(rung): float(count)
                for rung, count in enumerate(stats.rung_completions)
            },
        }
    return summary


def serve3_summary() -> dict:
    """Client-structured vs Poisson traffic comparison (serve3).

    Pins the four (traffic, policy) runs of the serve3 experiment —
    goodput, percentile and shed/failed accounting per run, the
    dispersion index of each trace, and the per-tier breakdown of the
    unprotected client run.  This is the regression contract for the
    traffic layer *and* for the experiment's headline ranking flip:
    if either trace generation or the admission interaction moves,
    the flip margin recorded here moves with it and the golden fails.
    """
    from repro.experiments.serve3_traffic import dispersion_index
    from repro.experiments.serve3_traffic import (
        _run_scenarios as serve3_scenarios,
    )
    from repro.serving.slo import tier_slo_report

    scenarios, traces, deadlines = serve3_scenarios()
    summary: dict = {
        "traces": {
            label: {
                "requests": float(len(trace)),
                "service_sum_s": float(trace.batch.service_s.sum()),
                "dispersion": dispersion_index(trace),
            }
            for label, trace in traces.items()
        }
    }
    for traffic_label, policy_label, report, slo in scenarios:
        summary[f"{traffic_label}|{policy_label}"] = {
            "goodput": slo.goodput,
            "completed": float(report.completed_count),
            "failed": float(report.failed_count),
            "shed": float(report.shed_count),
            "per_model": {
                entry.model: {
                    "p50_s": entry.p50_s,
                    "p95_s": entry.p95_s,
                    "p99_s": entry.p99_s,
                }
                for entry in slo.per_model
            },
        }
        if (traffic_label, policy_label) == ("client", "no-admission"):
            tiers = tier_slo_report(
                report, traces["client"], deadlines
            )
            summary["client_tiers"] = {
                entry.tier: {
                    "clients": float(entry.clients),
                    "offered": float(entry.offered),
                    "p95_s": entry.p95_s,
                    "goodput": entry.goodput,
                }
                for entry in tiers.per_tier
            }
    return summary


def serve4_summary() -> dict:
    """Chaos-campaign arms under a correlated zone outage (serve4).

    Pins all four serve4 arms — latency percentiles, goodput and the
    terminal-state decomposition per arm — plus the per-domain
    availability/MTTD/MTTR table of the orchestrated arm and the
    invariant verdicts.  This is the
    regression contract for the failure-domain compiler and the
    recovery-orchestration path: a change to jitter draws, cordon
    semantics, standby promotion or re-admission staggering moves
    these numbers and fails here instead of drifting.
    """
    from repro.experiments.serve4_chaos import _run_scenarios
    from repro.serving.slo import percentile

    scenarios, _ = _run_scenarios()
    summary: dict = {}
    for entry in scenarios:
        report = entry["report"]
        latencies = report.latency_s.tolist()
        summary[entry["label"]] = {
            "p50_s": percentile(latencies, 50.0),
            "p99_s": percentile(latencies, 99.0),
            "goodput": entry["slo"].goodput,
            "completed": float(report.completed_count),
            "failed": float(report.failed_count),
            "shed": float(report.shed_count),
            "makespan_s": report.makespan_s,
            "invariant_violations": float(
                len(entry["invariants"].violations)
            ),
        }
        if entry["label"] == "all-on+orchestration":
            summary["domains"] = {
                domain.domain: {
                    "servers": float(domain.servers),
                    "events": float(domain.events),
                    "down_server_s": domain.down_server_s,
                    "availability": domain.availability,
                    "mttd_s": domain.mttd_s,
                    "mttr_s": domain.mttr_s,
                }
                for domain in entry["domains"].per_domain
            }
    return summary


def obs1_summary() -> dict:
    """Telemetry-driven regression attribution (obs1).

    Pins both breaker arms of the obs1 experiment — the SLO
    accounting, the telemetry counters, the queue-depth peak, the
    per-server breaker-open interval counts, the tail-overlap
    attribution fraction and the burn-rate alert firings.  Because
    every number is computed *from the telemetry log*, this golden is
    simultaneously the regression contract for the collection
    pipeline (spans, gauges, events, alerts) and for the experiment's
    headline attribution.
    """
    from repro.experiments.obs1_attribution import (
        ALERT_RULES,
        _run_scenarios as obs1_scenarios,
        tail_overlap_fraction,
    )
    from repro.obs import evaluate_alerts

    scenarios, blind_report, deadlines = obs1_scenarios()
    tuned_p99 = {
        m.model: m.p99_s for m in scenarios["tuned"][1].per_model
    }["stable_diffusion"]
    summary: dict = {
        "blind_completed": float(blind_report.completed_count),
    }
    for label, (report, slo, log) in scenarios.items():
        firings = evaluate_alerts(log, deadlines, rules=ALERT_RULES)
        summary[label] = {
            "goodput": slo.goodput,
            "completed": float(report.completed_count),
            "failed": float(report.failed_count),
            "shed": float(report.shed_count),
            "per_model": {
                entry.model: {
                    "p50_s": entry.p50_s,
                    "p95_s": entry.p95_s,
                    "p99_s": entry.p99_s,
                }
                for entry in slo.per_model
            },
            "breaker_opens": log.counter_final("breaker_opens"),
            "retries": log.counter_final("retries"),
            "queue_depth_peak": log.series_named(
                "pool.a100.queue_depth"
            ).peak,
            "open_intervals_per_server": {
                str(server): float(len(intervals))
                for server, intervals in
                log.breaker_open_intervals().items()
            },
            "tail_overlap": tail_overlap_fraction(log, tuned_p99),
            "alerts": [
                {
                    "rule": firing.rule,
                    "start_s": firing.start_s,
                    "end_s": firing.end_s,
                    "peak_burn": firing.peak_burn,
                }
                for firing in firings
            ],
        }
    return summary


def dist2_summary() -> dict:
    """Parallelism auto-planner search + fleet wiring (dist2).

    Pins, per model × machine combo: the costed tp=8 baseline, the
    planner's best-throughput and best-latency picks (config label,
    latency, throughput, memory, bubble), the full Pareto frontier,
    and the basis amortization counters — plus the goodput/p95 of the
    auto-planned vs hand-picked fleet replay.  Any drift in the kernel
    or collective cost models, the symbolic axis algebra, the pipeline
    schedules or the memory model moves these numbers and fails here.
    """
    from repro.experiments.dist2_planner import (
        MACHINES as dist2_machines,
        MODELS as dist2_models,
        _run_planner as dist2_planner,
    )

    def point(p) -> dict:
        return {
            "config": p.config.label,
            "latency_s": p.latency_s,
            "throughput_rps": p.throughput_rps,
            "memory_bytes": p.memory_bytes,
            "bubble_fraction": p.bubble_fraction,
        }

    searches, fleet = dist2_planner()
    summary: dict = {"fleet": fleet}
    for _, registry_name in dist2_models:
        for machine in dist2_machines:
            result, baseline = searches[(registry_name, machine)]
            summary[f"{registry_name}|{machine}"] = {
                "baseline": point(baseline),
                "best_throughput": point(result.best_throughput()),
                "best_latency": point(result.best_latency()),
                "frontier": [point(p) for p in result.frontier],
                "stats": {
                    key: float(value)
                    for key, value in result.stats.items()
                },
            }
    return summary


GOLDEN_SUMMARIES: dict[str, Callable[[], dict]] = {
    "table1": table1_summary,
    "table2": table2_summary,
    "fig06_shares": fig6_summary,
    "fig12": fig12_summary,
    "dist1": dist1_summary,
    "dist2": dist2_summary,
    "serve1": serve1_summary,
    "serve2": serve2_summary,
    "serve3": serve3_summary,
    "serve4": serve4_summary,
    "obs1": obs1_summary,
}


def write_golden(name: str, path: Path) -> dict:
    """Compute summary ``name`` and write it as golden JSON at ``path``.

    The single write path for both the ``--update-golden`` refresh and
    the refresh-path tests, so the on-disk format cannot fork.
    Returns the summary that was written.
    """
    actual = GOLDEN_SUMMARIES[name]()
    path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
    return actual


def _flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def compare_summaries(
    expected: dict,
    actual: dict,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> list[str]:
    """Diff two summary trees; returns human-readable mismatches.

    An empty list means the trees agree to within the tolerances.
    Missing or extra keys are mismatches too — a model that stops (or
    starts) reporting a number is as much a regression as one that
    shifts it.
    """
    flat_expected = _flatten(expected)
    flat_actual = _flatten(actual)
    mismatches: list[str] = []
    for path in sorted(set(flat_expected) | set(flat_actual)):
        if path not in flat_expected:
            mismatches.append(f"{path}: unexpected new value")
            continue
        if path not in flat_actual:
            mismatches.append(f"{path}: missing from actual")
            continue
        want, got = flat_expected[path], flat_actual[path]
        if isinstance(want, float) and isinstance(got, (int, float)):
            if not math.isclose(
                want, float(got), rel_tol=rel_tol, abs_tol=abs_tol
            ):
                drift = (
                    (float(got) - want) / want * 100.0 if want else 0.0
                )
                mismatches.append(
                    f"{path}: expected {want!r}, got {got!r} "
                    f"({drift:+.3f}%)"
                )
        elif want != got:
            mismatches.append(f"{path}: expected {want!r}, got {got!r}")
    return mismatches
