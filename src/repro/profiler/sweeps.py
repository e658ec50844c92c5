"""Vectorized sweep engine: grid evaluation over cached kernel costs.

Design-space sweeps (how does latency scale with batch size, sequence
length, or denoising step count?) repeatedly total the same kernels
under different multiplicities.  Walking the trace once per grid point
is wasteful: a profiled trace compresses to a small set of *distinct*
kernels with launch counts, the kernel-cost cache already holds one
priced :class:`~repro.ir.trace.KernelCost` per distinct kernel, and a
whole grid then evaluates as a single matrix product

    totals[point, metric] = counts[point, kernel] @ costs[kernel, metric]

over numpy arrays.  The scalar path (summing per-event costs) and the
vectorized path agree to float tolerance — ``counts @ times`` reorders
the additions, so agreement is ``isclose``, not bit-identity; the
golden-pinned experiment outputs never go through this module.

Three sweep axes mirror the paper's scaling discussions:

* :func:`batch_sweep` — profile per batch size, evaluate jointly;
* :func:`seqlen_sweep` — model builder per sequence-length operating
  point (e.g. Stable Diffusion's image-size knob, Figures 8/9);
* :func:`step_sweep` — analytic in the step count: the denoising loop
  contributes a per-step kernel vector, everything else is a constant
  base, so any step grid is one broadcast multiply-add;
* :func:`batch_step_grid` — the 2-D combination of the first and last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.hw.spec import A100_80GB, GPUSpec
from repro.ir.context import AttentionImpl
from repro.ir.module import Module
from repro.ir.ops import Op
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.estimator import CostEstimator
from repro.profiler.profiler import ProfileResult, profile_model

#: Columns of the per-kernel cost matrix (and of every totals array).
METRICS = ("time_s", "flops", "moved_bytes")


@dataclass(frozen=True)
class CompressedTrace:
    """A trace reduced to distinct kernels with launch counts.

    ``costs`` is a ``(kernels, 3)`` array of per-launch
    (time, flops, moved bytes) drawn from the kernel-cost cache;
    ``counts`` holds the number of launches of each kernel, fold
    factors from bucketed loops included.
    """

    ops: tuple[Op, ...]
    counts: np.ndarray
    costs: np.ndarray

    @property
    def kernels(self) -> int:
        """Number of distinct kernels."""
        return len(self.ops)

    @property
    def launches(self) -> float:
        """Total kernel launches the trace represents."""
        return float(self.counts.sum())

    def totals(self) -> np.ndarray:
        """(time_s, flops, moved_bytes) of the whole trace."""
        return self.counts @ self.costs

    @property
    def total_time_s(self) -> float:
        return float(self.counts @ self.costs[:, 0])


def compress_trace(
    trace: Trace,
    *,
    gpu: GPUSpec = A100_80GB,
    tuning: TuningConstants = DEFAULT_TUNING,
) -> CompressedTrace:
    """Compress ``trace`` to distinct kernels and launch counts.

    Per-launch costs come from :class:`CostEstimator` — cache hits for
    any trace the profiler produced on the same machine, so
    compression re-prices nothing.
    """
    estimator = CostEstimator(gpu, tuning)
    index: dict[int, int] = {}
    ops: list[Op] = []
    counts: list[float] = []
    for event in trace.events:
        op = event.op
        column = index.get(id(op))
        if column is None:
            column = len(ops)
            index[id(op)] = column
            ops.append(op)
            counts.append(0.0)
        counts[column] += event.repeat
    costs = np.empty((len(ops), len(METRICS)), dtype=np.float64)
    for row, op in enumerate(ops):
        cost = estimator.estimate(op)
        costs[row, 0] = cost.time_s
        costs[row, 1] = cost.flops
        costs[row, 2] = cost.moved_bytes
    return CompressedTrace(
        ops=tuple(ops),
        counts=np.asarray(counts, dtype=np.float64),
        costs=costs,
    )


@dataclass(frozen=True)
class SweepResult:
    """Totals along one sweep axis.

    ``time_s``, ``flops`` and ``moved_bytes`` are parallel to
    ``values``; ``kernels`` is the size of the union kernel set the
    grid was evaluated over.
    """

    axis: str
    values: tuple
    time_s: np.ndarray
    flops: np.ndarray
    moved_bytes: np.ndarray
    kernels: int

    def __len__(self) -> int:
        return len(self.values)

    def scaling_vs_first(self) -> np.ndarray:
        """Latency of each point relative to the first."""
        return self.time_s / self.time_s[0]

    def as_rows(self) -> list[list[object]]:
        """Table rows: (value, time ms, TFLOPs, GB moved)."""
        return [
            [
                value,
                f"{self.time_s[i] * 1e3:.1f}",
                f"{self.flops[i] / 1e12:.2f}",
                f"{self.moved_bytes[i] / 1e9:.2f}",
            ]
            for i, value in enumerate(self.values)
        ]


def _result_from_totals(
    axis: str, values: Sequence, totals: np.ndarray, kernels: int
) -> SweepResult:
    return SweepResult(
        axis=axis,
        values=tuple(values),
        time_s=totals[:, 0],
        flops=totals[:, 1],
        moved_bytes=totals[:, 2],
        kernels=kernels,
    )


def evaluate_profiles(
    profiles: Sequence[ProfileResult],
    *,
    axis: str,
    values: Sequence,
    tuning: TuningConstants = DEFAULT_TUNING,
) -> SweepResult:
    """Jointly total a family of profiles as one matrix product.

    Kernels are unioned by content across the profiles (the same GEMM
    at two batch sizes is two different kernels; a kernel shared by
    every point occupies one column), so the whole grid is a single
    ``counts @ costs`` multiply.
    """
    if len(profiles) != len(values):
        raise ValueError("one profile per grid value required")
    if not profiles:
        raise ValueError("empty sweep")
    gpu = profiles[0].gpu
    if any(profile.gpu is not gpu for profile in profiles):
        raise ValueError("sweep points must share one machine")
    columns: dict[Op, int] = {}
    compressed = [
        compress_trace(profile.trace, gpu=gpu, tuning=tuning)
        for profile in profiles
    ]
    for point in compressed:
        for op in point.ops:
            if op not in columns:
                columns[op] = len(columns)
    counts = np.zeros((len(profiles), len(columns)), dtype=np.float64)
    costs = np.zeros((len(columns), len(METRICS)), dtype=np.float64)
    for row, point in enumerate(compressed):
        for op, count, cost in zip(point.ops, point.counts, point.costs):
            column = columns[op]
            counts[row, column] += count
            costs[column] = cost
    return _result_from_totals(axis, values, counts @ costs, len(columns))


def batch_sweep(
    model: Module,
    batches: Sequence[int],
    *,
    gpu: GPUSpec = A100_80GB,
    attention_impl: AttentionImpl = AttentionImpl.BASELINE,
    tuning: TuningConstants = DEFAULT_TUNING,
) -> SweepResult:
    """Total one inference of ``model`` at each batch size."""
    profiles = [
        profile_model(
            model, gpu=gpu, attention_impl=attention_impl,
            tuning=tuning, batch=batch,
        )
        for batch in batches
    ]
    return evaluate_profiles(
        profiles, axis="batch", values=batches, tuning=tuning
    )


def seqlen_sweep(
    build_model: Callable[[object], Module],
    seqlens: Sequence,
    *,
    gpu: GPUSpec = A100_80GB,
    attention_impl: AttentionImpl = AttentionImpl.BASELINE,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> SweepResult:
    """Sweep a sequence-length operating point via a model builder.

    ``build_model(value)`` returns the model configured at that point —
    e.g. ``lambda size: StableDiffusion(config.at_image_size(size))``
    sweeps the latent token count of Figures 8/9.
    """
    profiles = [
        profile_model(
            build_model(value), gpu=gpu, attention_impl=attention_impl,
            tuning=tuning, batch=batch,
        )
        for value in seqlens
    ]
    return evaluate_profiles(
        profiles, axis="seqlen", values=seqlens, tuning=tuning
    )


def _split_loop(
    trace: Trace,
    loop_scope: str,
    *,
    gpu: GPUSpec,
    tuning: TuningConstants,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Split a compressed trace into (base, per-step) total vectors.

    Events under ``{loop_scope}_{N}`` scopes belong to the loop; the
    per-step vector is the loop total divided by the number of distinct
    iterations observed.  Returns (base totals, per-step totals,
    observed steps, distinct kernels), each totals vector over
    :data:`METRICS`.
    """
    pattern = re.compile(rf"(?:^|\.){re.escape(loop_scope)}_(\d+)(?:\.|$)")
    estimator = CostEstimator(gpu, tuning)
    cost_memo: dict[int, tuple[float, float, float]] = {}
    base = [0.0] * len(METRICS)
    loop = [0.0] * len(METRICS)
    steps_seen: set[int] = set()
    for event in trace.events:
        op = event.op
        row = cost_memo.get(id(op))
        if row is None:
            cost = estimator.estimate(op)
            row = (cost.time_s, cost.flops, cost.moved_bytes)
            cost_memo[id(op)] = row
        match = pattern.search(event.module_path)
        target = base
        if match is not None:
            steps_seen.add(int(match.group(1)))
            target = loop
        repeat = event.repeat
        for metric in range(len(METRICS)):
            target[metric] += row[metric] * repeat
    if not steps_seen:
        raise ValueError(
            f"trace has no '{loop_scope}_<n>' scopes to sweep over"
        )
    observed = len(steps_seen)
    return (
        np.asarray(base),
        np.asarray(loop) / observed,
        observed,
        len(cost_memo),
    )


def step_sweep(
    profile: ProfileResult,
    steps: Sequence[int],
    *,
    loop_scope: str = "denoise",
    tuning: TuningConstants = DEFAULT_TUNING,
) -> SweepResult:
    """Totals at each step count, analytic in the loop length.

    The profiled trace is split once into a constant base and a
    per-step kernel vector; every grid point is then a broadcast
    multiply-add — no re-profiling, no per-point trace walk.
    """
    if any(count < 0 for count in steps):
        raise ValueError("step counts must be non-negative")
    base, per_step, _, kernels = _split_loop(
        profile.trace, loop_scope, gpu=profile.gpu, tuning=tuning
    )
    grid = np.asarray(steps, dtype=np.float64)
    totals = base[None, :] + grid[:, None] * per_step[None, :]
    return _result_from_totals("steps", steps, totals, kernels)


@dataclass(frozen=True)
class GridSweepResult:
    """Totals over a 2-D (batch, steps) grid.

    ``time_s``/``flops``/``moved_bytes`` have shape
    ``(len(batches), len(steps))``.
    """

    batches: tuple[int, ...]
    steps: tuple[int, ...]
    time_s: np.ndarray
    flops: np.ndarray
    moved_bytes: np.ndarray

    def point(self, batch: int, steps: int) -> tuple[float, float, float]:
        """Totals at one grid coordinate."""
        row = self.batches.index(batch)
        column = self.steps.index(steps)
        return (
            float(self.time_s[row, column]),
            float(self.flops[row, column]),
            float(self.moved_bytes[row, column]),
        )


def batch_step_grid(
    model: Module,
    batches: Sequence[int],
    steps: Sequence[int],
    *,
    loop_scope: str = "denoise",
    gpu: GPUSpec = A100_80GB,
    attention_impl: AttentionImpl = AttentionImpl.BASELINE,
    tuning: TuningConstants = DEFAULT_TUNING,
) -> GridSweepResult:
    """Evaluate the full batch x step-count grid of a looped model.

    One profile per batch size; the step axis is analytic, so a
    ``B x S`` grid costs ``B`` profiles (cache hits after the first
    sweep) and one broadcast per metric.
    """
    bases = np.empty((len(batches), len(METRICS)))
    per_steps = np.empty((len(batches), len(METRICS)))
    for row, batch in enumerate(batches):
        profile = profile_model(
            model, gpu=gpu, attention_impl=attention_impl,
            tuning=tuning, batch=batch,
        )
        bases[row], per_steps[row], _, _ = _split_loop(
            profile.trace, loop_scope, gpu=gpu, tuning=tuning
        )
    grid = np.asarray(steps, dtype=np.float64)
    # (B, 1, M) + (B, 1, M) * (1, S, 1) -> (B, S, M)
    totals = (
        bases[:, None, :]
        + per_steps[:, None, :] * grid[None, :, None]
    )
    return GridSweepResult(
        batches=tuple(batches),
        steps=tuple(steps),
        time_s=totals[:, :, 0],
        flops=totals[:, :, 1],
        moved_bytes=totals[:, :, 2],
    )
