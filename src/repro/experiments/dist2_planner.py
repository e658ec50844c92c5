"""dist2: the parallelism auto-planner vs hand-picked strategies.

dist1 swept hand-picked tensor-parallel groups and found the paper's
Section V story: sharding one inference hits diminishing returns fast,
and per-GPU throughput peaks at world size 1.  This experiment closes
the loop — :func:`repro.distributed.planner.plan_parallelism` searches
the (tp, pp, dp, microbatch, sequence-parallel) space symbolically and
has to *rediscover* that result against a hand-picked baseline, per
model and per machine, instead of having it baked in.

The hand-picked baseline is ``tp=8`` — dist1's "shard it across the
whole node" configuration, the strategy an LLM-trained intuition
reaches for.  For every TTI/TTV generator × machine pair the planner's
best feasible plan must strictly beat that baseline's throughput at
the same global batch and GPU budget (the acceptance bar for the
planner subsystem).  The experiment also wires the winning plan into
the fleet simulator via :func:`repro.serving.sharded.planned_pool` and
replays the same request stream against an auto-planned pool and a
tp=8 pool, so the planner's win shows up in goodput, not just in the
analytical model.

Checked claims: the planner strictly beats tp=8 throughput on all six
model × machine combos; its best-latency plan always uses more than
one GPU; every emitted plan respects the 90% HBM cap; the symbolic
basis amortizes (configs costed >= 4x axis builds everywhere); and the
auto-planned pool out-serves the tp=8 pool on a replayed stream.
"""

from __future__ import annotations

from repro.distributed.planner import (
    ParallelConfig,
    PlannerBasis,
    PlannerResult,
    PlanPoint,
    plan_parallelism,
    pareto_frontier,
)
from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import model_instance
from repro.ir.module import Module
from repro.profiler.memory_footprint import suite_kv_cache_bytes
from repro.serving.fleet import pool_from_replicas, simulate_fleet
from repro.serving.sharded import planned_pool, replica_from_plan
from repro.serving.slo import slo_report
from repro.serving.workload import WorkloadMix, generate_requests

EXPERIMENT_ID = "dist2"

MACHINES = ("dgx-a100-80g", "dgx-h100")
# (display name, suite registry name): two TTI generators and one TTV,
# sharing the suite's profiled model instances.
MODELS = (
    ("StableDiffusion", "stable_diffusion"),
    ("Muse", "muse"),
    ("MakeAVideo", "make_a_video"),
)
GPU_BUDGET = 8
GLOBAL_BATCH = 8
# dist1's all-shard hand pick: the whole node as one tensor-parallel
# group.
BASELINE = ParallelConfig(tp=8)

# Fleet replay: offered load between the tp=8 pool's capacity and the
# auto-planned pool's, so the planner's headroom becomes goodput.
FLEET_RATE_RPS = 5.0
FLEET_DURATION_S = 300.0
FLEET_SEED = 23
FLEET_DEADLINE_S = 4.0
# The (registry name, machine) combo the fleet leg serves.
FLEET_COMBO = ("stable_diffusion", MACHINES[0])


def _run_planner() -> tuple[
    dict[tuple[str, str], tuple[PlannerResult, PlanPoint]], dict[str, float]
]:
    """Every search plus the fleet leg, one planner basis per combo.

    Returns the planner search and the costed tp=8 baseline per combo,
    and the fleet-leg metrics.  The fleet leg replays SD@A100 on that
    combo's basis after its search, so it reuses the search's traces
    and axes instead of planning again from scratch.  Each basis is
    released when its combo is done.
    """
    searches: dict[tuple[str, str], tuple[PlannerResult, PlanPoint]] = {}
    fleet: dict[str, float] = {}
    for _, registry_name in MODELS:
        model = model_instance(registry_name)
        kv = suite_kv_cache_bytes(registry_name, model)
        for machine in MACHINES:
            basis = PlannerBasis(model, machine, kv_bytes=kv)
            result = plan_parallelism(
                model, machine=machine, gpu_budget=GPU_BUDGET,
                global_batch=GLOBAL_BATCH, basis=basis,
            )
            baseline = basis.cost_config(
                BASELINE, global_batch=GLOBAL_BATCH
            )
            searches[(registry_name, machine)] = (result, baseline)
            if (registry_name, machine) == FLEET_COMBO:
                fleet = _fleet_leg(model, basis)
    return searches, fleet


def _fleet_leg(model: Module, basis: PlannerBasis) -> dict[str, float]:
    """Replay one stream against the auto-planned and tp=8 SD pools."""
    machine = basis.machine
    auto_pool, auto_point = planned_pool(
        "auto-planned", model, machine=machine,
        gpu_budget=GPU_BUDGET, global_batch=GLOBAL_BATCH, basis=basis,
    )
    baseline_replica = replica_from_plan(
        model, BASELINE, machine=machine, basis=basis
    )
    baseline_pool = pool_from_replicas(
        "hand-picked-tp8", [baseline_replica], servers=1
    )
    mix = WorkloadMix(
        shares={"stable_diffusion": 1.0},
        service_s={"stable_diffusion": baseline_replica.latency(1)},
    )
    requests = generate_requests(
        mix, arrival_rate=FLEET_RATE_RPS, duration_s=FLEET_DURATION_S,
        seed=FLEET_SEED,
    )
    metrics: dict[str, float] = {
        "auto_throughput_rps": auto_point.throughput_rps,
    }
    for label, pool in (("auto", auto_pool), ("tp8", baseline_pool)):
        report = simulate_fleet(requests, [pool])
        slo = slo_report(report, FLEET_DEADLINE_S)
        metrics[f"{label}_goodput"] = slo.goodput
        metrics[f"{label}_p95_s"] = slo.per_model[0].p95_s
        metrics[f"{label}_completed"] = float(report.completed_count)
    return metrics


def _point_values(point: PlanPoint) -> dict:
    return {
        "config": point.config.label,
        "latency_s": point.latency_s,
        "throughput_rps": point.throughput_rps,
        "memory_bytes": point.memory_bytes,
        "bubble_fraction": point.bubble_fraction,
    }


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    searches, fleet = _run_planner()
    values: dict = {"fleet": fleet}
    rows: list[list[object]] = []
    beats_baseline = []
    latency_worlds = []
    cap_ok = []
    frontier_ok = []
    amortized = []
    for model_name, registry_name in MODELS:
        for machine in MACHINES:
            result, baseline = searches[(registry_name, machine)]
            best = result.best_throughput()
            fastest = result.best_latency()
            speedup = best.throughput_rps / baseline.throughput_rps
            beats_baseline.append(
                best.throughput_rps > baseline.throughput_rps
            )
            latency_worlds.append(fastest.config.world)
            cap_ok.append(all(p.fits for p in result.feasible))
            frontier_ok.append(
                len(pareto_frontier(result.frontier))
                == len(result.frontier)
            )
            amortized.append(
                result.stats["configs_costed"]
                >= 4 * result.stats["axis_builds"]
            )
            values[f"{registry_name}|{machine}"] = {
                "baseline": _point_values(baseline),
                "best_throughput": _point_values(best),
                "best_latency": _point_values(fastest),
                "frontier": [_point_values(p) for p in result.frontier],
                "stats": {
                    key: float(value) for key, value in result.stats.items()
                },
            }
            rows.append(
                [
                    model_name,
                    machine,
                    f"{baseline.throughput_rps:.2f}",
                    best.config.label,
                    f"{best.throughput_rps:.2f}",
                    f"{speedup:.2f}x",
                    fastest.config.label,
                    f"{fastest.latency_s * 1e3:.0f}",
                    len(result.frontier),
                ]
            )
    combos = len(MODELS) * len(MACHINES)
    sd_result, sd_baseline = searches[("stable_diffusion", MACHINES[0])]
    sd_best = sd_result.best_throughput()
    claims = [
        ClaimCheck(
            claim="the auto-planner's best feasible plan strictly beats "
            "the hand-picked tp=8 baseline's throughput on every "
            "model x machine combo at equal batch and GPU budget",
            paper="the best parallelism strategy is workload-dependent "
            "(Section V); fleets scale out rather than shard (Fig. 1)",
            measured=(
                f"{sum(beats_baseline)}/{combos} combos; SD@A100 "
                f"{sd_best.config.label} {sd_best.throughput_rps:.2f} "
                f"rps vs tp8 {sd_baseline.throughput_rps:.2f} rps"
            ),
            holds=all(beats_baseline),
        ),
        ClaimCheck(
            claim="the lowest-latency plan for draining a batch-8 round "
            "always spans more than one GPU",
            paper="parallelism still pays for latency even when "
            "sharding one kernel does not",
            measured=(
                "best-latency worlds: "
                + ", ".join(str(w) for w in latency_worlds)
            ),
            holds=all(w > 1 for w in latency_worlds),
        ),
        ClaimCheck(
            claim="every plan the planner emits as feasible fits the "
            "90% per-device HBM cap",
            paper="memory capacity bounds deployable configs "
            "(Section IV's footprint analysis)",
            measured=f"cap respected in {sum(cap_ok)}/{combos} combos",
            holds=all(cap_ok),
        ),
        ClaimCheck(
            claim="the Pareto frontier the planner reports is "
            "non-dominated over (latency, throughput, GPUs)",
            paper="planner contract",
            measured=(
                f"frontier re-filter is a fixed point in "
                f"{sum(frontier_ok)}/{combos} combos"
            ),
            holds=all(frontier_ok),
        ),
        ClaimCheck(
            claim="the symbolic basis amortizes the search: every combo "
            "costs >= 4 configs per partition+pricing pass",
            paper="symbolic costing avoids materializing each config's "
            "trace (STAGE, PAPERS.md)",
            measured=(
                f"SD@A100: {sd_result.stats['configs_costed']} configs "
                f"from {sd_result.stats['axis_builds']} axis builds, "
                f"{sd_result.stats['trace_profiles']} profiles"
            ),
            holds=all(amortized),
        ),
        ClaimCheck(
            claim="wired into the fleet simulator, the auto-planned "
            "pool out-serves the tp=8 pool on the same replayed "
            "request stream",
            paper="planner picks must survive contact with serving "
            "dynamics, not just the analytical model",
            measured=(
                f"goodput {fleet['auto_goodput']:.3f} (auto) vs "
                f"{fleet['tp8_goodput']:.3f} (tp8) at "
                f"{FLEET_RATE_RPS:.0f} rps offered"
            ),
            holds=fleet["auto_goodput"] > fleet["tp8_goodput"],
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Parallelism auto-planner vs hand-picked baselines across "
        "the TTI/TTV zoo and machines",
        headers=["model", "machine", "tp8 rps", "best plan", "best rps",
                 "speedup", "fastest plan", "latency ms", "frontier"],
        rows=rows,
        claims=claims,
        values=values,
    )
