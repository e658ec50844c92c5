"""Module tree, hooks and parameter-counting tests."""

import gc

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.module import Module, Sequential
from repro.ir.ops import Elementwise
from repro.ir.tensor import TensorSpec, tensor
from repro.models.registry import build_model
from repro.profiler import profile_model


class Leaf(Module):
    def __init__(self, params: int = 10, name: str | None = None):
        super().__init__(name=name)
        self._params = params

    def own_param_count(self) -> int:
        return self._params

    def forward(self, ctx, x: TensorSpec) -> TensorSpec:
        ctx.emit(Elementwise("noop", numel=x.numel))
        return x


class Branch(Module):
    def __init__(self):
        super().__init__()
        self.left = Leaf(5, name="left")
        self.right = Leaf(7, name="right")

    def forward(self, ctx, x):
        return self.right(ctx, self.left(ctx, x))


class TestTree:
    def test_setattr_registers_children(self):
        branch = Branch()
        names = dict(branch.named_children())
        assert set(names) == {"left", "right"}

    def test_private_attrs_not_registered(self):
        module = Leaf()
        module._helper = Leaf()
        assert "_helper" not in dict(module.named_children())

    def test_add_module_explicit(self):
        parent = Module()
        child = parent.add_module("stage0", Leaf())
        assert dict(parent.named_children())["stage0"] is child
        assert parent.stage0 is child

    def test_modules_depth_first(self):
        branch = Branch()
        modules = list(branch.modules())
        assert modules[0] is branch
        assert len(modules) == 3

    def test_named_modules_paths(self):
        branch = Branch()
        paths = [path for path, _ in branch.named_modules()]
        assert paths == ["Branch", "Branch.left", "Branch.right"]

    def test_repr_mentions_params(self):
        assert "params=12" in repr(Branch())


class TestParams:
    def test_leaf_params(self):
        assert Leaf(42).param_count() == 42

    def test_tree_sums_params(self):
        assert Branch().param_count() == 12

    def test_param_bytes_fp16(self):
        assert Branch().param_bytes() == 24

    def test_default_own_params_zero(self):
        assert Module().own_param_count() == 0


class TestHooks:
    def test_forward_hook_fires_with_output(self):
        calls = []
        leaf = Leaf()
        leaf.register_forward_hook(
            lambda module, ctx, args, output: calls.append(
                (module.name, output.shape)
            )
        )
        leaf(ExecutionContext(), tensor(2, 4))
        assert calls == [("Leaf", (2, 4))]

    def test_pre_forward_hook_fires_before(self):
        order = []
        leaf = Leaf()
        leaf.register_pre_forward_hook(
            lambda module, ctx, args: order.append("pre")
        )
        leaf.register_forward_hook(
            lambda module, ctx, args, output: order.append("post")
        )
        leaf(ExecutionContext(), tensor(2))
        assert order == ["pre", "post"]

    def test_hook_remover(self):
        calls = []
        leaf = Leaf()
        remove = leaf.register_forward_hook(
            lambda module, ctx, args, output: calls.append(1)
        )
        remove()
        leaf(ExecutionContext(), tensor(2))
        assert calls == []

    def test_annotation_framework_counts_calls(self):
        """The paper's methodology: hooks on every forward."""
        branch = Branch()
        counts: dict[str, int] = {}

        def counting_hook(module, ctx, args, output):
            counts[module.name] = counts.get(module.name, 0) + 1

        for module in branch.modules():
            module.register_forward_hook(counting_hook)
        branch(ExecutionContext(), tensor(2))
        assert counts == {"Branch": 1, "left": 1, "right": 1}

    def test_profile_without_hooks_walks_no_subtree(self, monkeypatch):
        """With no hook registered, a cold profile never scans a
        module's subtree for one."""
        gc.collect()  # modules that earlier tests hooked are gone
        walks = []
        modules = Module.modules

        def counting_modules(module):
            walks.append(module.name)
            return modules(module)

        monkeypatch.setattr(Module, "modules", counting_modules)
        result = profile_model(build_model("stable_diffusion@256"))
        assert len(result.trace) > 0
        assert walks == []

    def test_hook_on_a_child_still_executes_its_parent(self):
        """A hook registered after a parent's scan reaches the child,
        and removing it leaves the parent replaying again."""
        calls = []
        branch = Branch()
        ctx = ExecutionContext()
        for _ in range(3):
            branch(ctx, tensor(2))
        remove = branch.left.register_forward_hook(
            lambda module, ctx, args, output: calls.append(module.name)
        )
        branch(ctx, tensor(2))
        assert calls == ["left"]
        remove()
        branch(ctx, tensor(2))
        assert calls == ["left"]
        assert not branch._subtree_has_hooks()


class TestSequential:
    def test_runs_in_order(self):
        ctx = ExecutionContext()
        seq = Sequential(Leaf(name="a"), Leaf(name="b"))
        seq(ctx, tensor(4))
        paths = [event.module_path for event in ctx.trace]
        assert paths == ["Sequential.a", "Sequential.b"]

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(ExecutionContext(), tensor(1))
