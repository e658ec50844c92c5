"""Module-tree query and time-tree tests."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.graph import (
    modules_of_type,
    parameter_hotspots,
    render_time_tree,
    time_tree,
    tree_depth,
)
from repro.ir.tensor import tensor
from repro.ir.trace import Trace
from repro.layers.transformer import TransformerConfig, TransformerStack


@pytest.fixture(scope="module")
def stack():
    return TransformerStack(
        TransformerConfig(dim=64, num_layers=2, num_heads=4),
        name="stack",
    )


class TestModuleGraph:
    def test_is_a_tree(self, stack):
        # Paths are unique and each one's parent is a path seen before
        # it, so the depth-first walk the queries use is a tree.
        seen = []
        for path, _ in stack.named_modules():
            assert path not in seen
            if seen:
                assert path.rsplit(".", 1)[0] in seen
            seen.append(path)
        assert seen[0] == "stack"

    def test_root_subtree_params_match_model(self, stack):
        # The walk parameter_hotspots ranks sees every parameter once.
        owned = sum(
            module.own_param_count() for _, module in stack.named_modules()
        )
        assert owned == stack.param_count()

    def test_node_count_matches_modules(self, stack):
        types = {type(module).__name__ for module in stack.modules()}
        found = [
            path for name in types for path in modules_of_type(stack, name)
        ]
        assert len(found) == len(set(found)) == len(list(stack.modules()))

    def test_depth(self, stack):
        # stack -> block -> attention -> projection = 4 levels.
        assert tree_depth(stack) == 4

    def test_modules_of_type(self, stack):
        attention = modules_of_type(stack, "MultiHeadAttention")
        assert len(attention) == 2
        assert all("self_attn" in path for path in attention)

    def test_parameter_hotspots_are_projections(self, stack):
        hotspots = parameter_hotspots(stack, top_k=3)
        assert all(params > 0 for _, params in hotspots)
        # FFN projections are the biggest leaves in a transformer.
        assert all(".ff." in path for path, _ in hotspots)

    def test_hotspot_ties_keep_tree_order(self, stack):
        assert parameter_hotspots(stack, top_k=6) == [
            ("stack.block_0.ff.up", 16640),
            ("stack.block_1.ff.up", 16640),
            ("stack.block_0.ff.down", 16448),
            ("stack.block_1.ff.down", 16448),
            ("stack.block_0.self_attn.q_proj", 4096),
            ("stack.block_0.self_attn.k_proj", 4096),
        ]

    def test_hotspots_invalid_k(self, stack):
        with pytest.raises(ValueError):
            parameter_hotspots(stack, top_k=0)


class TestTimeTree:
    @pytest.fixture(scope="class")
    def trace(self, stack):
        ctx = ExecutionContext()
        stack(ctx, tensor(1, 16, 64))
        return ctx.trace

    def test_root_covers_everything(self, trace):
        root = time_tree(trace)
        assert root.fraction == pytest.approx(1.0)
        assert root.time_s == pytest.approx(trace.total_time_s)

    def test_children_sum_to_parent(self, trace):
        root = time_tree(trace, max_depth=2)
        child_total = sum(child.time_s for child in root.children)
        assert child_total == pytest.approx(root.time_s)

    def test_children_sorted_by_time(self, trace):
        root = time_tree(trace, max_depth=3)
        for node in (root, *root.children):
            times = [child.time_s for child in node.children]
            assert times == sorted(times, reverse=True)

    def test_depth_limits_expansion(self, trace):
        shallow = time_tree(trace, max_depth=1)
        assert shallow.children == ()

    def test_render_contains_percentages(self, trace):
        text = render_time_tree(time_tree(trace, max_depth=2))
        assert "%" in text and "ms" in text
        assert "stack" in text

    def test_render_filters_tiny_nodes(self, trace):
        full = render_time_tree(
            time_tree(trace, max_depth=3), min_fraction=0.0
        )
        filtered = render_time_tree(
            time_tree(trace, max_depth=3), min_fraction=0.2
        )
        assert len(filtered) < len(full)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            time_tree(Trace())

    def test_invalid_depth(self, trace):
        with pytest.raises(ValueError):
            time_tree(trace, max_depth=0)
