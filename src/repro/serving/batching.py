"""Batch-latency curves for generation serving.

Section II-C notes low batch sizes are the natural TTI serving regime —
but GPUs amortize fixed costs across a batch (see
:mod:`repro.analysis.batching`), so servers batch-up under load.  A
fleet pool (:class:`repro.serving.fleet.PoolSpec`) describes each
server by one batch-latency function per model; this module builds
such functions from batch latencies measured with the profiler,
closing the loop between the kernel model and serving behaviour.

:data:`BatchLatencyFn` is the fleet engine's latency interface; the
engine prices each (pool, model, rung, batch size) once and memoizes
it, so a latency function must be *pure* — every function this module
builds is — and must return finite, non-negative seconds.  All times
are seconds (``_s`` suffix).
"""

from __future__ import annotations

from typing import Callable

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
