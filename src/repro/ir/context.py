"""Execution context: records operator launches against a cost model.

Running a model means calling ``model(ctx, inputs)`` with an
:class:`ExecutionContext`.  Layers emit operators through ``ctx.emit``;
each emission is costed by the kernel models and appended to the trace.
The context also carries run-wide configuration — which GPU, and whether
attention layers lower to baseline kernels or a fused Flash-Attention
kernel (the before/after comparison of Figure 6).
"""

from __future__ import annotations

import contextlib
import enum
from typing import TYPE_CHECKING, Iterator

from repro.ir.ops import Op
from repro.ir.trace import KernelCost, Trace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hw.spec import GPUSpec
    from repro.ir.module import Module


def _check_fold_factor(name: str, value: int) -> None:
    """Reject a fold factor that is not a whole number of launches."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


class AttentionImpl(enum.Enum):
    """How attention layers lower to kernels."""

    BASELINE = "baseline"
    FLASH = "flash"


class ExecutionContext:
    """Collects a :class:`Trace` while a model's forward pass runs."""

    def __init__(
        self,
        gpu: "GPUSpec | None" = None,
        attention_impl: AttentionImpl = AttentionImpl.BASELINE,
        estimator: "object | None" = None,
    ):
        # Deferred imports: hw and kernels build on ir, so ir must not
        # import them at module scope (would be circular).
        if gpu is None:
            from repro.hw.spec import A100_80GB

            gpu = A100_80GB
        if estimator is None:
            from repro.kernels.estimator import CostEstimator

            estimator = CostEstimator(gpu)
        self.gpu = gpu
        self.attention_impl = attention_impl
        self.estimator = estimator
        self.trace = Trace()
        self._module_stack: list[str] = []
        self._clock_s = 0.0
        self._repeat_factor = 1
        # Subgraph-replay memoization key: identical (machine, tuning,
        # attention lowering) contexts replay recorded module subgraphs
        # instead of re-walking them (see Module.__call__).  Estimators
        # without a content token (custom test doubles, or caching
        # disabled via REPRO_NO_CACHE) leave memoization off.
        machine = getattr(estimator, "cache_token", None)
        self.memo_token = (
            None if machine is None else (machine, attention_impl)
        )

    # -- module scoping ----------------------------------------------------

    @property
    def current_path(self) -> str:
        return ".".join(self._module_stack)

    @contextlib.contextmanager
    def module_scope(self, module: "Module") -> Iterator[None]:
        """Annotate emissions with ``module``'s name (hook attribution)."""
        self._module_stack.append(module.name)
        try:
            yield
        finally:
            self._module_stack.pop()

    @contextlib.contextmanager
    def named_scope(self, name: str) -> Iterator[None]:
        """Annotate a region without a module (loop iterations etc.)."""
        self._module_stack.append(name)
        try:
            yield
        finally:
            self._module_stack.pop()

    @contextlib.contextmanager
    def repeat_scope(self, factor: int) -> Iterator[None]:
        """Scale every emission inside by ``factor``.

        Used to bucket long loops of identical iterations (e.g. 16
        autoregressive decode steps at a representative KV length) into
        single trace events, keeping traces tractable without changing
        totals.
        """
        _check_fold_factor("repeat factor", factor)
        previous = self._repeat_factor
        self._repeat_factor = previous * factor
        try:
            yield
        finally:
            self._repeat_factor = previous

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        op: Op,
        *,
        flags: frozenset[str] | set[str] = frozenset(),
        repeat: int = 1,
    ) -> KernelCost:
        """Cost one operator launch and append it to the trace.

        ``repeat`` scales the cost for ``repeat`` identical back-to-back
        launches (used to bucket long decode loops without emitting one
        event per step).  The event records the applied factor, this
        ``repeat`` times every enclosing ``repeat_scope``.
        """
        _check_fold_factor("repeat", repeat)
        repeat *= self._repeat_factor
        cost: KernelCost = self.estimator.estimate(op).scaled(repeat)
        event = TraceEvent(
            index=len(self.trace.events),
            module_path=self.current_path,
            op=op,
            cost=cost,
            start_s=self._clock_s,
            flags=frozenset(flags),
            repeat=repeat,
        )
        self.trace.events.append(event)
        self._clock_s += cost.time_s
        return cost

    # -- subgraph replay ---------------------------------------------------

    def replay_segment(self, segment: "object") -> None:
        """Append a recorded module subgraph to the trace.

        ``segment`` is a :class:`repro.ir.memo.Segment`: (relative path,
        op, cost, flags, fold factor) tuples captured by a previous
        identical call.
        Replay reproduces exactly the events re-running the module would
        emit — same ops, same costs, same clock accumulation order —
        with module paths re-rooted at the current scope.
        """
        events = self.trace.events
        index = len(events)
        clock = self._clock_s
        prefix = ".".join(self._module_stack)
        base = prefix + "." if prefix else ""
        append = events.append
        event_cls = TraceEvent
        for rel_path, op, cost, flags, repeat, time_s in segment.items:
            append(
                event_cls(
                    index, base + rel_path, op, cost, clock, flags, repeat
                )
            )
            clock += time_s
            index += 1
        self._clock_s = clock

    # -- summary ----------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return self._clock_s

    def reset(self) -> None:
        """Clear the trace so the context can be reused."""
        self.trace = Trace()
        self._clock_s = 0.0
        self._module_stack.clear()
