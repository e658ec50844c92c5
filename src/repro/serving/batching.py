"""Dynamic batching for generation serving.

Section II-C notes low batch sizes are the natural TTI serving regime —
but GPUs amortize fixed costs across a batch (see
:mod:`repro.analysis.batching`), so servers batch-up under load.  This
module simulates a dynamic-batching server: requests queue, and the
server launches a batch whenever it is free, taking up to
``max_batch`` queued requests.  Batched service time comes from a
batch-latency function measured with the profiler, closing the loop
between the kernel model and serving behaviour.

:data:`BatchLatencyFn` is the fleet engine's latency interface; the
engine prices each (pool, model, rung, batch size) once and memoizes
it, so a latency function must be *pure* — every function this module
builds is — and must return finite, non-negative seconds.
:func:`simulate_batching_server` itself is a standalone single-server
simulator that shares no code with the fleet engine.  All times are
seconds (``_s`` suffix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.serving.queueing import CompletedRequest, QueueReport
from repro.serving.workload import Request

BatchLatencyFn = Callable[[int], float]
"""Maps a batch size to one service invocation's latency (seconds)."""


def interpolated_batch_latency(
    measured: dict[int, float],
) -> BatchLatencyFn:
    """Piecewise-linear batch-latency function from measured points.

    ``measured`` maps batch size -> latency; queries between points are
    interpolated, queries beyond the largest point extrapolate at the
    marginal cost of the last segment.  Extrapolation always charges a
    positive marginal cost: with a single measured point (no segment to
    take a slope from) or a flat final segment, the fallback slope is
    the last point's average per-request cost — otherwise a server
    sized off the curve would believe arbitrarily large batches are
    free.
    """
    if not measured:
        raise ValueError("need at least one measured point")
    if any(b <= 0 or t <= 0 for b, t in measured.items()):
        raise ValueError("batch sizes and latencies must be positive")
    points = sorted(measured.items())
    sizes = [b for b, _ in points]
    times = [t for _, t in points]
    if times != sorted(times):
        raise ValueError("latency must be non-decreasing in batch size")

    # Marginal cost past the last measured point.  Guard the degenerate
    # cases (one point, or a flat last segment) with the average
    # per-request cost so the slope is always positive.
    if len(points) >= 2:
        (b0, t0), (b1, t1) = points[-2], points[-1]
        tail_slope = (t1 - t0) / (b1 - b0)
    else:
        tail_slope = 0.0
    if tail_slope <= 0.0:
        tail_slope = times[-1] / sizes[-1]

    def latency(batch: int) -> float:
        if batch <= 0:
            raise ValueError("batch must be positive")
        if batch <= sizes[0]:
            return times[0]
        for (b0, t0), (b1, t1) in zip(points, points[1:]):
            if batch <= b1:
                frac = (batch - b0) / (b1 - b0)
                return t0 + frac * (t1 - t0)
        return times[-1] + tail_slope * (batch - sizes[-1])

    return latency


@dataclass(frozen=True)
class BatchRecord:
    """One launched batch."""

    start_s: float
    finish_s: float
    size: int


def simulate_batching_server(
    requests: list[Request],
    batch_latency: BatchLatencyFn,
    *,
    max_batch: int = 8,
) -> tuple[QueueReport, list[BatchRecord]]:
    """Single-GPU dynamic batching simulation.

    The server greedily takes up to ``max_batch`` queued requests the
    moment it frees up (no artificial timeout), mirroring common
    generation-serving frontends.
    """
    if max_batch <= 0:
        raise ValueError("max_batch must be positive")
    if not requests:
        # An idle server is a well-defined simulation, not an error: a
        # fleet report summing over pools must tolerate pools that saw
        # no traffic.
        return QueueReport(completed=(), servers=1, makespan_s=0.0), []
    ordered = sorted(requests, key=lambda request: request.arrival_s)
    completed: list[CompletedRequest] = []
    batches: list[BatchRecord] = []
    free_at = 0.0
    index = 0
    while index < len(ordered):
        head = ordered[index]
        start = max(free_at, head.arrival_s)
        batch = [head]
        while (
            len(batch) < max_batch
            and index + len(batch) < len(ordered)
            and ordered[index + len(batch)].arrival_s <= start
        ):
            batch.append(ordered[index + len(batch)])
        finish = start + batch_latency(len(batch))
        for request in batch:
            completed.append(
                CompletedRequest(
                    request=request, start_s=start, finish_s=finish,
                    server=0,
                )
            )
        batches.append(
            BatchRecord(start_s=start, finish_s=finish, size=len(batch))
        )
        free_at = finish
        index += len(batch)
    makespan = max(
        (record.finish_s for record in completed), default=0.0
    )
    report = QueueReport(
        completed=tuple(completed), servers=1, makespan_s=makespan
    )
    return report, batches


def mean_batch_size(batches: list[BatchRecord]) -> float:
    """Average launched batch size (load-dependent).

    An idle server launched no batches; its mean batch size is 0.0 by
    definition (rather than an error), so fleet-level aggregation over
    pools with idle members stays total.
    """
    if not batches:
        return 0.0
    return sum(batch.size for batch in batches) / len(batches)
