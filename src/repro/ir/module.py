"""Module tree with forward hooks.

``Module`` mirrors the slice of ``torch.nn.Module`` the paper's
methodology relies on: a named tree of components whose forward
functions can be hooked ("we develop a profiling framework ... via
inserting hooks into the forward functions of each module"), plus
parameter counting for the roofline and taxonomy analyses.

Subclasses implement ``forward(ctx, *args)`` where ``ctx`` is an
:class:`repro.ir.context.ExecutionContext`; inside ``forward`` they emit
operators via ``ctx.emit`` or call child modules.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Iterator

from repro.ir.memo import Segment, capture_segment

ForwardHook = Callable[["Module", "Any", tuple, Any], None]
PreForwardHook = Callable[["Module", "Any", tuple], None]

# Bumped on every hook (de)registration anywhere in the process; modules
# cache their subtree-hook scan against it so the memoization fast path
# does not walk the tree on every call.
_hook_epoch = 0
# The live modules holding a hook; while it is empty no subtree has one,
# so a scan needs no walk.
_hooked_modules: "weakref.WeakSet[Module]" = weakref.WeakSet()


def _bump_hook_epoch() -> None:
    global _hook_epoch
    _hook_epoch += 1


class Module:
    """Base class for all model components.

    Modules are assumed immutable after construction (configs are frozen
    dataclasses throughout): repeated calls with equal symbolic inputs
    under an equal execution context emit identical operator streams,
    which is what lets ``__call__`` replay recorded subgraphs (see
    :mod:`repro.ir.memo`) instead of re-walking generation loops.
    """

    # Most modules never get a hook: a list is made when one registers.
    _forward_hooks: list[ForwardHook] | tuple = ()
    _pre_forward_hooks: list[PreForwardHook] | tuple = ()

    def __init__(self, name: str | None = None):
        # Bypass __setattr__ child registration for internal state.
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "name", name or type(self).__name__)
        # Subgraph memo table: call key -> 1 (seen once) | Segment.
        object.__setattr__(self, "_memo", {})
        # Cached (hook epoch, subtree-has-hooks) scan result.
        object.__setattr__(self, "_hooks_scan", (-1, False))

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

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """(dotted path, module) pairs over this subtree, depth-first."""
        path = prefix or self.name
        yield path, self
        for key, child in self._children.items():
            yield from child.named_modules(f"{path}.{key}")

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

    # -- hooks & execution -------------------------------------------------

    def register_forward_hook(self, hook: ForwardHook) -> Callable[[], None]:
        """Add a post-forward hook; returns a remover callable."""
        return self._register_hook("_forward_hooks", hook)

    def register_pre_forward_hook(
        self, hook: PreForwardHook
    ) -> Callable[[], None]:
        """Add a hook that fires before forward; returns a remover."""
        return self._register_hook("_pre_forward_hooks", hook)

    def _register_hook(self, kind: str, hook: Callable) -> Callable[[], None]:
        self.__dict__.setdefault(kind, []).append(hook)
        _hooked_modules.add(self)
        _bump_hook_epoch()

        def remove() -> None:
            getattr(self, kind).remove(hook)
            if not (self._forward_hooks or self._pre_forward_hooks):
                _hooked_modules.discard(self)
            _bump_hook_epoch()

        return remove

    def _subtree_has_hooks(self) -> bool:
        """True when any module in this subtree has a registered hook.

        Hooked subtrees must really execute (the hooks are the point),
        so they are excluded from record/replay.  The scan is cached
        against the global hook epoch, and walks nothing while no live
        module holds a hook.
        """
        epoch, hooked = self._hooks_scan
        if epoch == _hook_epoch:
            return hooked
        hooked = bool(_hooked_modules) and any(
            module._forward_hooks or module._pre_forward_hooks
            for module in self.modules()
        )
        object.__setattr__(self, "_hooks_scan", (_hook_epoch, hooked))
        return hooked

    def forward(self, ctx: Any, *args: Any, **kwargs: Any) -> Any:
        """Emit this module's operators into ``ctx``; return outputs."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, ctx: Any, *args: Any, **kwargs: Any) -> Any:
        token = getattr(ctx, "memo_token", None)
        if token is None or self._subtree_has_hooks():
            # Hooked (or memo-disabled) path: always really execute.
            for hook in self._pre_forward_hooks:
                hook(self, ctx, args)
            with ctx.module_scope(self):
                output = self.forward(ctx, *args, **kwargs)
            for hook in self._forward_hooks:
                hook(self, ctx, args, output)
            return output
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


class Sequential(Module):
    """Runs children in order, feeding each the previous output."""

    def __init__(self, *stages: Module, name: str | None = None):
        super().__init__(name=name)
        for index, stage in enumerate(stages):
            self.add_module(str(index), stage)

    def forward(self, ctx: Any, x: Any) -> Any:
        for child in self._children.values():
            x = child(ctx, x)
        return x
