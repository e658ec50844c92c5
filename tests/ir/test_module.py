"""Module tree, module-path attribution and parameter-counting tests."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import Elementwise
from repro.ir.tensor import TensorSpec, tensor


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


class TestExecution:
    def test_kernels_carry_their_module_path(self):
        """The paper's hook attribution: each kernel names the module
        whose forward emitted it, also when a repeated call replays."""
        ctx = ExecutionContext()
        branch = Branch()
        for _ in range(3):
            branch(ctx, tensor(4))
        paths = [event.module_path for event in ctx.trace]
        assert paths == ["Branch.left", "Branch.right"] * 3

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(ExecutionContext(), tensor(1))
