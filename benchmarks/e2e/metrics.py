"""Metric definitions and the statistics the runner and ``compare`` share.

End-to-end metrics are what a user of the simulator waits for; they are
measured with tracing off.  Per-layer metrics come from a traced run and
each names the end-to-end metric, and the workloads, it should move.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass

WORKLOAD_NAMES = ("battery", "design_sweep", "fleet_day", "fleet_control")
FLEET = ("fleet_day", "fleet_control")

#: End-to-end metric -> unit.  ``work_per_s`` counts the workload's own
#: item: experiments (battery), profiles (design_sweep) or simulated
#: requests (fleet_day, fleet_control).
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: ``failed / attempted``; it is not a metric of the result line (the line
#: carries both counts) but ``compare`` checks that it does not rise.
FAILED_RATIO = "failed_ratio"

#: The 21 experiments in registry order.
EXPERIMENT_IDS = (
    "fig1", "fig4", "fig5", "table1", "fig6", "table2", "table3", "fig7",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "dist1", "dist2",
    "serve1", "serve2", "serve3", "serve4", "obs1",
)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and the end-to-end metric it should move.

    ``moves`` pairs an end-to-end metric (or ``failed_ratio``) with the
    workloads on which a change to the layer should show in it; the
    harness's own metrics move nothing.  A ``self_share`` is the span
    name's self time over the traced ops' wall time.
    """

    name: str
    unit: str
    better: str
    moves: tuple[tuple[str, tuple[str, ...]], ...]


def _battery(name: str, unit: str = "ratio", better: str = "lower"):
    return LayerMetric(name, unit, better, (("work_per_s", ("battery",)),))


_PROFILING = (("work_per_s", ("design_sweep", "battery")),)
_FLEET_DAY = (("work_per_s", ("fleet_day", "battery")),)
_CONTROL = (("work_per_s", ("fleet_control", "battery")),)
_BOTH_FLEETS = (("work_per_s", (*FLEET, "battery")),)

LAYER_METRICS: tuple[LayerMetric, ...] = (
    *(_battery(f"experiments.{exp_id}.share") for exp_id in EXPERIMENT_IDS),
    *(
        metric
        for function in (
            "plan_parallelism", "build_axis", "partition", "build_timelines",
        )
        for metric in (
            _battery(f"distributed.{function}.calls", "count"),
            _battery(f"distributed.{function}.self_share"),
        )
    ),
    _battery("distributed.axis_builds_per_search"),
    LayerMetric("profiler.profile_model.calls", "count", "lower", _PROFILING),
    LayerMetric("profiler.profile_model.self_share", "ratio", "lower",
                _PROFILING),
    LayerMetric("profiler.profile_model.memo_hit_ratio", "ratio", "higher",
                _PROFILING),
    LayerMetric("kernels.compute_estimate.calls", "count", "lower",
                _PROFILING),
    LayerMetric("kernels.compute_estimate.self_share", "ratio", "lower",
                _PROFILING),
    LayerMetric("kernels.cost_cache.hit_ratio", "ratio", "higher",
                _PROFILING),
    _battery("kernels.simulate_attention_cache.self_share"),
    LayerMetric("serving.simulate_fleet.calls", "count", "lower",
                _BOTH_FLEETS),
    LayerMetric("serving.simulate_fleet.self_share", "ratio", "lower",
                _BOTH_FLEETS),
    LayerMetric("serving.simulate_fleet.requests_per_s", "1/s", "higher",
                _BOTH_FLEETS),
    LayerMetric("serving.generate_traffic.self_share", "ratio", "lower",
                _FLEET_DAY),
    LayerMetric("serving.generate_requests.self_share", "ratio", "lower",
                _CONTROL),
    LayerMetric("serving.chaos_compile.self_share", "ratio", "lower",
                (("work_per_s", ("fleet_control",)),)),
    LayerMetric("serving.slo_report.self_share", "ratio", "lower",
                _BOTH_FLEETS),
    LayerMetric("serving.domain_slo_report.self_share", "ratio", "lower",
                _CONTROL),
    LayerMetric("serving.check_invariants.self_share", "ratio", "lower",
                ((FAILED_RATIO, FLEET), ("work_per_s", ("battery",)))),
    LayerMetric("obs.telemetry_log.self_share", "ratio", "lower", _CONTROL),
    LayerMetric("obs.dumps_telemetry.self_share", "ratio", "lower",
                (("work_per_s", ("fleet_control",)),)),
    LayerMetric("obs.evaluate_alerts.self_share", "ratio", "lower", _CONTROL),
    LayerMetric("unattributed.self_share", "ratio", "lower",
                (("work_per_s", WORKLOAD_NAMES),)),
    LayerMetric("trace.wall_s", "s", "lower", ()),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", ()),
)


def layer_values(
    table: dict[str, dict[str, float]],
    *,
    traced_wall_s: float,
    overhead_ratio: float,
    memo_hits: int,
    fleet_requests: int,
    cache_hits: int,
    cache_misses: int,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from aggregated spans and counters.

    ``table`` is :func:`tracing.aggregate` output summed over the traced
    rounds.  A function that never ran reads 0 calls and 0 share, and a
    ratio with nothing to count reads 0.
    """

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.name.rpartition(".")
        if stat == "calls":
            values[metric.name] = row(layer)["calls"]
        elif stat == "self_share":
            span = "op" if layer == "unattributed" else layer
            values[metric.name] = ratio(row(span)["self_s"], traced_wall_s)
        elif stat == "share":
            values[metric.name] = ratio(row(layer)["total_s"], traced_wall_s)
    fleet = row("serving.simulate_fleet")
    values.update({
        "distributed.axis_builds_per_search": ratio(
            row("distributed.build_axis")["calls"],
            row("distributed.plan_parallelism")["calls"],
        ),
        "profiler.profile_model.memo_hit_ratio": ratio(
            memo_hits, row("profiler.profile_model")["calls"]
        ),
        "kernels.cost_cache.hit_ratio": ratio(
            cache_hits, cache_hits + cache_misses
        ),
        "serving.simulate_fleet.requests_per_s": ratio(
            fleet_requests, fleet["total_s"]
        ),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_ratio": overhead_ratio,
    })
    return values


# -- statistics ----------------------------------------------------------


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending, non-empty list."""
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """``(p, value)`` of the highest percentile with ten samples beyond it.

    Walks :data:`TAIL_LADDER` from the top and returns the first
    percentile whose value at least ten samples exceed, or ``None`` when
    the sample is too small for any of them.
    """
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        if not ordered:
            break
        value = percentile(ordered, p)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= 10:
            return p, value
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` reads than ``parent``, as a share of it."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` for one metric on one workload.

    The spread is the wider of the two sets' quartile distance over
    median.  A pair is ``unresolved`` when that spread exceeds the bound,
    unless every run of the change reads better than every run of the
    parent; otherwise it is a ``regression`` when the change's median is
    worse than the parent's by more than the bound, and ``ok`` when not.
    """
    spreads = []
    for values in (parent, change):
        q1, median, q3 = quartiles(values)
        spreads.append((q3 - q1) / abs(median) if median else 0.0)
    spread = max(spreads)
    worse = worse_by(
        quartiles(parent)[1], quartiles(change)[1], better
    )
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    if worse > bound:
        return "regression", worse, spread
    return "ok", worse, spread
