"""Pipeline-schedule simulators: GPipe vs 1F1B bubble accounting.

Given per-stage forward/backward times (seconds per microbatch) and a
microbatch count, these simulators compute the step makespan and the
pipeline *bubble fraction* — the share of device-time the stages spend
idle:

    bubble = 1 - total_work / (stages * makespan)

For uniform stages both schedules reach the classic closed form
``(p - 1) / (m + p - 1)`` exactly, which the unit tests pin.

**GPipe** runs all forwards, flushes, then runs all backwards; both
halves follow the wavefront recurrence
``t[s][i] = max(t[s][i-1], t[s-1][i]) + dur[s]``.

**1F1B** is modelled as eager work-conserving list scheduling with
backward priority (PipeDream-flush style): whenever a stage is free it
starts its earliest ready task, preferring backwards over forwards.
Backward of microbatch ``i`` on stage ``s`` depends on backward on
stage ``s+1`` (and on the last stage, on its own forward).  This
schedule never waits on an artificial flush, so its makespan — and
therefore its bubble — is never worse than GPipe's on the same config.
Unlike strict depth-capped 1F1B it does not limit in-flight
microbatches; the realised peak is reported as ``peak_in_flight`` so
memory accounting can use the measured value.

Forward-only (serving) latency uses :func:`forward_makespan`, the same
wavefront recurrence without a backward half.  With one stage and one
microbatch it degenerates to ``forward_s[0]`` exactly — the
byte-identical single-device contract the planner relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ordered_sum import ordered_sum


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating one pipeline schedule.

    Attributes:
        name: schedule identifier (``"gpipe"`` or ``"1f1b"``).
        stages: number of pipeline stages.
        microbatches: microbatches per step.
        makespan_s: wall-clock time of one training step.
        work_s: total busy device-time across all stages.
        bubble_fraction: idle share, ``1 - work / (stages * makespan)``.
        peak_in_flight: max microbatches any stage holds activations for.
    """

    name: str
    stages: int
    microbatches: int
    makespan_s: float
    work_s: float
    bubble_fraction: float
    peak_in_flight: int


def ideal_bubble_fraction(stages: int, microbatches: int) -> float:
    """Closed-form bubble for uniform stages: ``(p-1) / (m+p-1)``."""
    if stages < 1 or microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    return (stages - 1) / (microbatches + stages - 1)


def _validate(forward_s: Sequence[float], microbatches: int) -> int:
    if not forward_s:
        raise ValueError("need at least one stage")
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")
    if any(t < 0 for t in forward_s):
        raise ValueError("stage times must be non-negative")
    return len(forward_s)


def forward_makespan(forward_s: Sequence[float], microbatches: int) -> float:
    """Makespan of the forward-only wavefront (inference pipelines).

    ``t[s][i] = max(t[s][i-1], t[s-1][i]) + forward_s[s]``; returns
    ``t[p-1][m-1]``.  One stage, one microbatch returns ``forward_s[0]``
    unchanged (no float re-association).
    """
    stages = _validate(forward_s, microbatches)
    finish = [0.0] * stages
    for _ in range(microbatches):
        prev = 0.0
        for s in range(stages):
            start = finish[s] if finish[s] > prev else prev
            finish[s] = start + forward_s[s]
            prev = finish[s]
    return finish[-1]


def _bubble(stages: int, makespan: float, work: float) -> float:
    if stages == 1 or makespan <= 0.0:
        # A single stage is never idle; report exactly zero rather than
        # the float residue of 1 - work/makespan.
        return 0.0
    return 1.0 - work / (stages * makespan)


def simulate_gpipe(
    forward_s: Sequence[float],
    backward_s: Sequence[float],
    microbatches: int,
) -> ScheduleResult:
    """All forwards, a full flush, then all backwards."""
    stages = _validate(forward_s, microbatches)
    if len(backward_s) != stages:
        raise ValueError("forward and backward stage counts differ")
    if any(t < 0 for t in backward_s):
        raise ValueError("stage times must be non-negative")
    # Forward wavefront.
    fwd = [0.0] * stages
    for _ in range(microbatches):
        prev = 0.0
        for s in range(stages):
            start = fwd[s] if fwd[s] > prev else prev
            fwd[s] = start + forward_s[s]
            prev = fwd[s]
    flush = fwd[-1]
    # Backward wavefront, last stage first, starting at the flush.
    bwd = [flush] * stages
    for _ in range(microbatches):
        prev = flush
        for s in reversed(range(stages)):
            start = bwd[s] if bwd[s] > prev else prev
            bwd[s] = start + backward_s[s]
            prev = bwd[s]
    makespan = bwd[0]
    work = microbatches * (
        ordered_sum(forward_s) + ordered_sum(backward_s)
    )
    return ScheduleResult(
        name="gpipe",
        stages=stages,
        microbatches=microbatches,
        makespan_s=makespan,
        work_s=work,
        bubble_fraction=_bubble(stages, makespan, work),
        # GPipe holds every microbatch's activations until the flush.
        peak_in_flight=microbatches,
    )


def simulate_1f1b(
    forward_s: Sequence[float],
    backward_s: Sequence[float],
    microbatches: int,
) -> ScheduleResult:
    """Eager backward-priority list scheduling (PipeDream-flush style)."""
    stages = _validate(forward_s, microbatches)
    if len(backward_s) != stages:
        raise ValueError("forward and backward stage counts differ")
    if any(t < 0 for t in backward_s):
        raise ValueError("stage times must be non-negative")
    m = microbatches
    # fwd_done[s][i] / bwd_done[s][i]: finish times, None until scheduled.
    fwd_done: list[list[float | None]] = [[None] * m for _ in range(stages)]
    bwd_done: list[list[float | None]] = [[None] * m for _ in range(stages)]
    free = [0.0] * stages
    next_fwd = [0] * stages  # forwards complete in microbatch order
    next_bwd = [0] * stages  # so do backwards
    in_flight = [0] * stages
    peak = [0] * stages
    remaining = 2 * stages * m
    while remaining:
        best_stage = -1
        best_start = 0.0
        best_is_bwd = False
        for s in range(stages):
            # Work-conserving choice per stage: whichever of the two
            # frontier tasks can start earlier runs next; a tie goes to
            # the backward (the 1F1B discipline).
            cand_start: float | None = None
            cand_is_bwd = False
            i = next_bwd[s]
            if i < m:
                dep: float | None
                if s == stages - 1:
                    dep = fwd_done[s][i]
                else:
                    dep = bwd_done[s + 1][i]
                if dep is not None:
                    cand_start = free[s] if free[s] > dep else dep
                    cand_is_bwd = True
            i = next_fwd[s]
            if i < m:
                dep = 0.0 if s == 0 else fwd_done[s - 1][i]
                if dep is not None:
                    start = free[s] if free[s] > dep else dep
                    if cand_start is None or start < cand_start:
                        cand_start, cand_is_bwd = start, False
            if cand_start is not None and (
                best_stage < 0 or cand_start < best_start
            ):
                best_stage = s
                best_start = cand_start
                best_is_bwd = cand_is_bwd
        s = best_stage
        if best_is_bwd:
            i = next_bwd[s]
            finish = best_start + backward_s[s]
            bwd_done[s][i] = finish
            next_bwd[s] = i + 1
            in_flight[s] -= 1
        else:
            i = next_fwd[s]
            finish = best_start + forward_s[s]
            fwd_done[s][i] = finish
            next_fwd[s] = i + 1
            in_flight[s] += 1
            if in_flight[s] > peak[s]:
                peak[s] = in_flight[s]
        free[s] = finish
        remaining -= 1
    makespan = max(free)
    work = m * (ordered_sum(forward_s) + ordered_sum(backward_s))
    return ScheduleResult(
        name="1f1b",
        stages=stages,
        microbatches=m,
        makespan_s=makespan,
        work_s=work,
        bubble_fraction=_bubble(stages, makespan, work),
        peak_in_flight=max(peak),
    )
