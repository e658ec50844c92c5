"""Module tree with recorded-subgraph replay.

``Module`` mirrors the slice of ``torch.nn.Module`` the paper's
methodology relies on: a named tree of components whose every forward
call is annotated with its module path (the paper inserts hooks into
each module's forward function; here ``__call__`` opens the context's
:meth:`~repro.ir.context.ExecutionContext.module_scope`), plus
parameter counting for the roofline and taxonomy analyses.

Subclasses implement ``forward(ctx, *args)`` where ``ctx`` is an
:class:`repro.ir.context.ExecutionContext`; inside ``forward`` they emit
operators via ``ctx.emit`` or call child modules.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.ir.memo import Segment, capture_segment


class Module:
    """Base class for all model components.

    Modules are assumed immutable after construction (configs are frozen
    dataclasses throughout): repeated calls with equal symbolic inputs
    under an equal execution context emit identical operator streams,
    which is what lets ``__call__`` replay recorded subgraphs (see
    :mod:`repro.ir.memo`) instead of re-walking generation loops.
    """

    def __init__(self, name: str | None = None):
        # Bypass __setattr__ child registration for internal state.
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "name", name or type(self).__name__)
        # Subgraph memo table: call key -> 1 (seen once) | Segment.
        object.__setattr__(self, "_memo", {})

    # -- tree structure --------------------------------------------------

    def __setattr__(self, key: str, value: Any) -> None:
        if isinstance(value, Module) and not key.startswith("_"):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def add_module(self, key: str, module: "Module") -> "Module":
        """Explicitly register a child (used for list-like containers)."""
        self._children[key] = module
        object.__setattr__(self, key, module)
        return module

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        """(attribute name, child) pairs in registration order."""
        return iter(self._children.items())

    def modules(self) -> Iterator["Module"]:
        """This module and all descendants, depth-first."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    # -- parameters -------------------------------------------------------

    def own_param_count(self) -> int:
        """Parameters held directly by this module (children excluded)."""
        return 0

    def param_count(self) -> int:
        """Total trainable parameters in this subtree."""
        return self.own_param_count() + sum(
            child.param_count() for child in self._children.values()
        )

    def param_bytes(self, bytes_per_param: int = 2) -> int:
        """Model capacity in bytes (FP16 by default, per the paper)."""
        return self.param_count() * bytes_per_param

    # -- execution --------------------------------------------------------

    def forward(self, ctx: Any, *args: Any, **kwargs: Any) -> Any:
        """Emit this module's operators into ``ctx``; return outputs."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, ctx: Any, *args: Any, **kwargs: Any) -> Any:
        token = getattr(ctx, "memo_token", None)
        if token is None:
            # Memo disabled: always really execute.
            with ctx.module_scope(self):
                return self.forward(ctx, *args, **kwargs)
        try:
            key = (
                token,
                ctx._repeat_factor,
                args,
                tuple(sorted(kwargs.items())) if kwargs else (),
            )
            state = self._memo.get(key)
        except TypeError:
            # Unhashable arguments: this call cannot be memoized.
            key = None
            state = None
        if type(state) is Segment:
            ctx.replay_segment(state)
            return state.output
        if key is not None and state == 1:
            # Second identical call: execute once more, recording the
            # emissions so every further call replays them.
            mark = ctx.trace.mark()
            prefix = ctx.current_path
            with ctx.module_scope(self):
                output = self.forward(ctx, *args, **kwargs)
            segment = capture_segment(
                ctx.trace.runs_since(mark), prefix, output, self.name
            )
            # Outputs that cannot be shared leave the entry at 1; the
            # next call lands here again and simply re-executes.
            if segment is not None:
                self._memo[key] = segment
            return output
        if key is not None:
            self._memo[key] = 1
        with ctx.module_scope(self):
            return self.forward(ctx, *args, **kwargs)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"params={self.param_count():,})"
        )
