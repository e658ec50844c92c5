"""Subgraph-replay memoization: record a module call, replay it later.

Generation loops walk the same subgraph with the same symbolic inputs
over and over — a diffusion model runs its UNet once per denoising step,
an autoregressive decoder its block stack once per token bucket.  The
operator stream such a call emits is a pure function of (module, inputs,
machine, tuning, attention lowering), so after watching one call the
context can *replay* the recorded events instead of re-walking the tree:
same ops, same costs, same flags, same clock arithmetic, with module
paths re-rooted at the new scope.  Replay is bit-identical to
re-execution; the golden-trace suite and the cache-transparency property
tests both pin that.

A :class:`Segment` is recorded on the *second* identical call (the
counter lives in ``Module._memo``), so storage is only paid for
subgraphs that actually repeat.  Set ``REPRO_NO_CACHE=1`` to disable
recording and replay along with the kernel-cost cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.ir.tensor import TensorSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.trace import TraceEvent


class Segment:
    """One recorded module call: relative trace events plus the output.

    ``items`` rows are ``(relative path, op, cost, flags, repeat,
    time_s)``, ``repeat`` being the event's fold factor; the trailing
    ``time_s`` duplicates ``cost.time_s`` so the replay loop advances
    the clock without an attribute lookup per event.
    """

    __slots__ = ("items", "output")

    def __init__(
        self, items: tuple[tuple, ...], output: Any
    ) -> None:
        self.items = items
        self.output = output

    def __len__(self) -> int:
        return len(self.items)


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
    events: list["TraceEvent"], start: int, prefix: str, output: Any
) -> Segment | None:
    """Build a segment from the events a module call just appended.

    ``prefix`` is the scope path *outside* the call; stored paths are
    relative to it so replay can re-root them (``denoise_0.unet.mid`` is
    stored as ``unet.mid`` and replayed as ``denoise_17.unet.mid``).
    Returns ``None`` when the output cannot be safely shared.
    """
    if not output_is_replayable(output):
        return None
    cut = len(prefix) + 1 if prefix else 0
    return Segment(
        tuple(
            (
                event.module_path[cut:],
                event.op,
                event.cost,
                event.flags,
                event.repeat,
                event.cost.time_s,
            )
            for event in events[start:]
        ),
        output,
    )
