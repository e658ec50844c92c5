"""Module-tree queries and trace flame views.

Structural tooling over the module tree and recorded traces:

* :func:`tree_depth`, :func:`modules_of_type` and
  :func:`parameter_hotspots` walk the module tree
  (:meth:`Module.named_modules`) for structural queries like "which
  modules hold the parameters" or "how deep is the UNet";
* :func:`time_tree` — a flame-graph-style aggregation of a trace's
  execution time by module-path prefix, the textual equivalent of
  reading a profiler timeline top-down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.module import Module
from repro.ir.trace import Trace
from repro.ordered_sum import ordered_sum


def tree_depth(model: Module) -> int:
    """Longest root-to-leaf containment chain, counted in modules."""
    return 1 + max(
        (tree_depth(child) for _, child in model.named_children()),
        default=0,
    )


def modules_of_type(model: Module, type_name: str) -> list[str]:
    """Paths of all modules whose class matches ``type_name``."""
    return sorted(
        path for path, module in model.named_modules()
        if type(module).__name__ == type_name
    )


def parameter_hotspots(model: Module, top_k: int = 5) -> list[tuple[str, int]]:
    """Leaf-ish modules carrying the most parameters.

    Returns the ``top_k`` modules ranked by *own* parameters — where the
    capacity actually lives (embedding tables, big projections); ties
    keep depth-first tree order.
    """
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    owned = (
        (path, module.own_param_count())
        for path, module in model.named_modules()
    )
    ranked = sorted(
        ((path, params) for path, params in owned if params > 0),
        key=lambda item: item[1],
        reverse=True,
    )
    return ranked[:top_k]


@dataclass(frozen=True)
class TimeTreeNode:
    """One module-path prefix in a flame view."""

    path: str
    time_s: float
    fraction: float
    children: tuple["TimeTreeNode", ...]


def time_tree(trace: Trace, max_depth: int = 3) -> TimeTreeNode:
    """Aggregate a trace's time hierarchically by module path."""
    if max_depth <= 0:
        raise ValueError("max_depth must be positive")
    total = trace.total_time_s
    if total <= 0:
        raise ValueError("trace has no time")

    def build(prefix: tuple[str, ...], depth: int) -> TimeTreeNode:
        prefix_len = len(prefix)
        events = [
            event for event in trace
            if tuple(event.module_path.split(".")[:prefix_len]) == prefix
        ]
        time_s = ordered_sum(event.cost.time_s for event in events)
        children: tuple[TimeTreeNode, ...] = ()
        if depth < max_depth:
            next_parts = sorted(
                {
                    event.module_path.split(".")[prefix_len]
                    for event in events
                    if len(event.module_path.split(".")) > prefix_len
                }
            )
            children = tuple(
                build(prefix + (part,), depth + 1) for part in next_parts
            )
            children = tuple(
                sorted(children, key=lambda node: node.time_s,
                       reverse=True)
            )
        return TimeTreeNode(
            path=".".join(prefix) or "<root>",
            time_s=time_s,
            fraction=time_s / total,
            children=children,
        )

    return build((), 1)


def render_time_tree(
    node: TimeTreeNode, *, min_fraction: float = 0.01, indent: str = ""
) -> str:
    """Text flame view: one line per node above ``min_fraction``."""
    lines = [
        f"{indent}{node.path:<40s} {node.time_s*1e3:9.1f} ms "
        f"{node.fraction*100:5.1f}%"
    ]
    for child in node.children:
        if child.fraction >= min_fraction:
            lines.append(
                render_time_tree(
                    child, min_fraction=min_fraction, indent=indent + "  "
                )
            )
    return "\n".join(lines)
