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
from typing import TYPE_CHECKING, Iterator

from repro.ir.interned import IdentityEnum
from repro.ir.ops import Op
from repro.ir.trace import KernelCost, Trace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hw.spec import GPUSpec
    from repro.ir.memo import Segment
    from repro.ir.module import Module


def _check_fold_factor(name: str, value: int) -> None:
    """Reject a fold factor that is not a whole number of launches."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


class AttentionImpl(IdentityEnum):
    """How attention layers lower to kernels."""

    BASELINE = "baseline"
    FLASH = "flash"


# One small int per (machine token, attention lowering): memo keys hash it.
_MEMO_TOKENS: dict[tuple, int] = {}


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
        self.memo_token = None
        if machine is not None:
            key = (machine, attention_impl)
            self.memo_token = _MEMO_TOKENS.setdefault(key, len(_MEMO_TOKENS))

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
        self.trace.append(
            TraceEvent(
                index=len(self.trace),
                module_path=self.current_path,
                op=op,
                cost=cost,
                start_s=self._clock_s,
                flags=frozenset(flags),
                repeat=repeat,
            )
        )
        self._clock_s += cost.time_s
        return cost

    # -- subgraph replay ---------------------------------------------------

    def replay_segment(self, segment: "Segment") -> None:
        """Append a recorded module subgraph to the trace as one run.

        The trace stores (segment, base path, start clock); the clock
        advances over the segment's recorded times in the order
        re-running the module would add them, so every later emission
        starts where it would have.  The events themselves — same ops,
        costs and flags, paths re-rooted at the current scope — are
        built only when :attr:`Trace.events` is read.
        """
        prefix = ".".join(self._module_stack)
        clock = self._clock_s
        self.trace.append_replay(
            segment, prefix + "." if prefix else "", clock
        )
        for time_s in segment.times:
            clock += time_s
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
