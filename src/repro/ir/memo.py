"""Subgraph-replay memoization: record a module call, replay it later.

Generation loops walk the same subgraph with the same symbolic inputs
over and over — a diffusion model runs its UNet once per denoising step,
an autoregressive decoder its block stack once per token bucket.  The
operator stream such a call emits is a pure function of (module, inputs,
machine, tuning, attention lowering), so after watching one call the
context can *replay* the recorded events instead of re-walking the tree:
same ops, same costs, same flags, same clock arithmetic, with module
paths re-rooted at the new scope.  A replay appends one run to the
trace (:class:`repro.ir.trace.Trace`), and its events are built only
when someone reads them.  Replay is bit-identical to re-execution; the
golden-trace suite and the cache-transparency property tests both pin
that.

A :class:`Segment` is recorded on the *second* identical call (the
counter lives in ``Module._memo``), so storage is only paid for
subgraphs that actually repeat.  Set ``REPRO_NO_CACHE=1`` to disable
recording and replay along with the kernel-cost cache.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.ir.ops import Op
from repro.ir.tensor import TensorSpec
from repro.ir.trace import CATEGORY_CODES, KernelCost, Replay, TraceEvent


class Segment:
    """One recorded module call: relative rows plus the output.

    ``rows`` are ``(relative path, op, cost, flags, repeat)`` tuples,
    ``repeat`` being the row's fold factor; ``times`` holds each row's
    ``cost.time_s`` so replay advances the clock without an attribute
    lookup per row.  ``root`` is the called module's own scope, relative
    like the rows: every row's path is ``root`` or lies under it.
    """

    __slots__ = ("rows", "times", "output", "root", "_category_codes")

    def __init__(
        self,
        rows: tuple[tuple, ...],
        times: tuple[float, ...],
        output: Any,
        root: str,
    ) -> None:
        self.rows = rows
        self.times = times
        self.output = output
        self.root = root
        self._category_codes: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def category_codes(self) -> tuple[int, ...]:
        """Each row's op category as its ``CATEGORY_CODES`` code, built
        once and shared by every replay's
        :meth:`repro.ir.trace.Trace.time_by_category`."""
        if self._category_codes is None:
            self._category_codes = tuple(
                CATEGORY_CODES[op.category] for _, op, _, _, _ in self.rows
            )
        return self._category_codes

    def priced(self, price: Callable[[Op, int], KernelCost]) -> "Segment":
        """This call with each row's cost ``price(op, repeat)``."""
        rows = tuple(
            (path, op, price(op, repeat), flags, repeat)
            for path, op, _, flags, repeat in self.rows
        )
        times = tuple([row[2].time_s for row in rows])
        return Segment(rows, times, self.output, self.root)


def output_is_replayable(output: Any) -> bool:
    """True when a forward output can be shared between calls.

    Replay hands every caller the same object, so only immutable values
    qualify: symbolic tensors, plain scalars, and tuples thereof.
    """
    if output is None or isinstance(
        output, (TensorSpec, bool, int, float, str)
    ):
        return True
    if isinstance(output, tuple):
        return all(output_is_replayable(item) for item in output)
    return False


def capture_segment(
    runs: list[TraceEvent | Replay], prefix: str, output: Any, root: str
) -> Segment | None:
    """Build a segment from the runs a module call just appended.

    ``runs`` come from :meth:`repro.ir.trace.Trace.runs_since`,
    ``prefix`` is the scope path *outside* the call and ``root`` the
    scope the called module pushed inside it; stored paths are
    relative to ``prefix`` so replay can re-root them
    (``denoise_0.unet.mid`` is stored as ``unet.mid``, root ``unet``,
    and replayed as ``denoise_17.unet.mid``).
    Rows of segments replayed inside the call are copied in, so a
    segment is always flat.  Returns ``None`` when the output cannot be
    safely shared.
    """
    if not output_is_replayable(output):
        return None
    cut = len(prefix) + 1 if prefix else 0
    rows: list[tuple] = []
    times: list[float] = []
    for run in runs:
        if type(run) is TraceEvent:
            cost = run.cost
            rows.append(
                (run.module_path[cut:], run.op, cost, run.flags, run.repeat)
            )
            times.append(cost.time_s)
        else:
            head = run.base[cut:]
            rows.extend(
                [
                    (head + rel_path, op, cost, flags, repeat)
                    for rel_path, op, cost, flags, repeat in run.segment.rows
                ]
            )
            times.extend(run.segment.times)
    return Segment(tuple(rows), tuple(times), output, root)
