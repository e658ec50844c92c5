"""Host-speed reference: a fixed pure-Python loop timed beside the work.

The benchmark's host is shared, and other tenants' load changes its
speed by up to a factor of two within minutes; the loop slows with it.
The loop runs, untimed, in a window before the first timed piece of
work and after each one.  Every time the benchmark reports is host time
scaled by the two windows around it (:func:`nominal`): the time the
work would have taken at the host speed the benchmark was sized at.
The loop never calls the simulator, so a change to the simulator moves
the reported times and leaves the reference alone.
"""

from __future__ import annotations

import time

#: One chunk's time at the nominal host speed: a shared 2-vCPU x86-64 VM
#: running Python 3.11.
NOMINAL_CHUNK_S = 0.006
#: Length of the window after a piece of timed work, as a share of the
#: work's own time.
SHARE = 0.2
#: Length of the window before the first piece of work.
LEAD_S = 0.1


def _chunk() -> int:
    # The pytest-benchmark suite's calibration loop, shortened.
    total = 0
    for value in range(100_000):
        total += value * value
    return total


def window(seconds: float) -> list:
    """Run whole chunks until ``seconds`` have passed, at least one.

    Returns ``[chunks, seconds they took]``.
    """
    chunks = 0
    spent = 0.0
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        _chunk()
        now = time.perf_counter()
        spent += now - start
        chunks += 1
        if now >= end:
            return [chunks, spent]


def nominal(seconds: list[float], windows: list[list]) -> list[float]:
    """Nominal seconds of timed work, ``windows[i]`` before the i-th piece.

    ``windows`` holds the lead window and one window after each piece;
    each piece is scaled by the mean chunk time of the two around it.
    """
    return [
        host * NOMINAL_CHUNK_S
        * (before[0] + after[0]) / (before[1] + after[1])
        for host, before, after in zip(seconds, windows, windows[1:])
    ]
