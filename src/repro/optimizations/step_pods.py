"""Staggered denoising-step pods (the paper's Section V-A proposal).

"Different denoising steps of the diffusion process could be staggered
to allow for maximum memory bandwidth utilization at any one time.
Although denoising steps are traditionally sequential, certain steps
could potentially be grouped together into pods."

The mechanism: a UNet pass's bandwidth demand is cyclic (the same
U-shaped sequence-length profile as Figure 7 — big attention matrices
at full resolution, tiny ones at the bottleneck).  Running several
generations *in phase* stacks the demand peaks; offsetting them by a
fraction of the pass period overlaps peaks with troughs and smooths
aggregate demand.  This module simulates both schedules against the
HBM bandwidth cap and reports the throughput gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.spec import A100_80GB, GPUSpec
from repro.ir.trace import Trace
from repro.ordered_sum import ordered_sum


@dataclass(frozen=True)
class DemandBin:
    """Average memory-demand rate over one slice of a UNet pass."""

    duration_s: float
    bytes_per_s: float


def bandwidth_demand_profile(
    trace: Trace, bins: int = 64
) -> list[DemandBin]:
    """Discretize a trace's memory-bandwidth demand into time bins."""
    if bins <= 0:
        raise ValueError("bins must be positive")
    total = trace.total_time_s
    if total <= 0:
        raise ValueError("trace has no time")
    bin_width = total / bins
    demand = [0.0] * bins
    for event in trace:
        start = event.start_s
        end = event.end_s
        if end <= start:
            continue
        rate = event.cost.moved_bytes / (end - start)
        first = min(bins - 1, int(start / bin_width))
        last = min(bins - 1, int((end - 1e-18) / bin_width))
        for index in range(first, last + 1):
            bin_start = index * bin_width
            bin_end = bin_start + bin_width
            overlap = min(end, bin_end) - max(start, bin_start)
            if overlap > 0:
                demand[index] += rate * overlap / bin_width
    return [
        DemandBin(duration_s=bin_width, bytes_per_s=rate)
        for rate in demand
    ]


@dataclass(frozen=True)
class PodScheduleReport:
    """Aligned vs staggered execution of concurrent generations."""

    copies: int
    aligned_makespan_s: float
    staggered_makespan_s: float
    aligned_peak_demand: float
    staggered_peak_demand: float
    average_demand: float
    hbm_bandwidth: float

    @property
    def speedup(self) -> float:
        """Throughput gain of staggering (>= 1 when demand saturates)."""
        return self.aligned_makespan_s / self.staggered_makespan_s

    @property
    def peak_to_average_aligned(self) -> float:
        return self.aligned_peak_demand / self.average_demand

    @property
    def peak_to_average_staggered(self) -> float:
        return self.staggered_peak_demand / self.average_demand


def _simulate(
    profile: list[DemandBin],
    offsets: list[int],
    hbm_bandwidth: float,
) -> tuple[float, float]:
    """(makespan, peak demand) for copies at the given bin offsets.

    Aggregate demand per bin is the sum over phase-shifted copies;
    bins whose demand exceeds the cap dilate proportionally (fair
    bandwidth sharing).
    """
    bins = len(profile)
    makespan = 0.0
    peak = 0.0
    for index in range(bins):
        total_rate = ordered_sum(
            profile[(index - offset) % bins].bytes_per_s
            for offset in offsets
        )
        peak = max(peak, total_rate)
        dilation = max(1.0, total_rate / hbm_bandwidth)
        makespan += profile[index].duration_s * dilation
    return makespan, peak


def schedule_pods(
    trace: Trace,
    copies: int,
    *,
    gpu: GPUSpec = A100_80GB,
    bins: int = 64,
) -> PodScheduleReport:
    """Compare in-phase vs staggered execution of ``copies`` streams.

    ``trace`` should cover one fundamental period (one UNet pass).
    """
    if copies <= 0:
        raise ValueError("copies must be positive")
    profile = bandwidth_demand_profile(trace, bins=bins)
    aligned_offsets = [0] * copies
    staggered_offsets = [
        (index * bins) // copies for index in range(copies)
    ]
    aligned_makespan, aligned_peak = _simulate(
        profile, aligned_offsets, gpu.dram_bandwidth
    )
    staggered_makespan, staggered_peak = _simulate(
        profile, staggered_offsets, gpu.dram_bandwidth
    )
    average = copies * ordered_sum(
        demand_bin.bytes_per_s * demand_bin.duration_s
        for demand_bin in profile
    ) / ordered_sum(demand_bin.duration_s for demand_bin in profile)
    return PodScheduleReport(
        copies=copies,
        aligned_makespan_s=aligned_makespan,
        staggered_makespan_s=staggered_makespan,
        aligned_peak_demand=aligned_peak,
        staggered_peak_demand=staggered_peak,
        average_demand=average,
        hbm_bandwidth=gpu.dram_bandwidth,
    )
