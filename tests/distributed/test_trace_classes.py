"""The class table read from trace rows equals a per-event build.

:func:`trace_classes` reads :meth:`Trace.rows`, so replayed module
calls are never built into events.  The reference here is the
per-event build that preceded it: one pass assigning Megatron roles by
module path over the built events, one pass mapping every event to its
class.  Suite traces pin the equality at scale; three toy models pin
the places where a replay's roles depend on what surrounds it, so a
table copied from the replayed segment's own rows would be wrong: a
memoized leaf whose weight shares its scope with sibling layers, two
different segments replayed under one root, and a root first
populated by direct emission.
"""

from __future__ import annotations

import pytest

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import trace_classes
from repro.distributed.sharding import ShardRole
from repro.experiments.suite_cache import model_instance
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import OpCategory
from repro.ir.tensor import tensor
from repro.ir.trace import Replay, Trace
from repro.layers.linear import Linear
from repro.profiler.profiler import profile_model


def _parent_scope(path: str) -> str:
    return path.rsplit(".", 1)[0] if "." in path else ""


def reference_leaf_roles(
    trace: Trace,
) -> dict[str, tuple[ShardRole, CollectiveKind | None]]:
    """Column/row placement per parameter-bearing path, event by event."""
    roles: dict[str, tuple[ShardRole, CollectiveKind | None]] = {}
    anchor_seen: dict[str, bool] = {}
    next_is_column: dict[str, bool] = {}
    pending_column: dict[str, str] = {}
    for event in trace.events:
        op = event.op
        if event.is_attention_anchor:
            anchor_seen[event.module_path] = True
        if not op.param_bytes() > 0:
            continue
        leaf = event.module_path
        scope = _parent_scope(leaf)
        if op.category is OpCategory.ATTENTION:
            if leaf in roles:
                if roles[leaf][0] is ShardRole.ROW:
                    anchor_seen[scope] = False
            elif anchor_seen.get(scope):
                roles[leaf] = (ShardRole.ROW, CollectiveKind.ALL_REDUCE)
                anchor_seen[scope] = False
            else:
                roles[leaf] = (ShardRole.COLUMN, None)
            continue
        if leaf in roles:
            continue
        if next_is_column.get(scope, True):
            roles[leaf] = (ShardRole.COLUMN, None)
            next_is_column[scope] = False
            pending_column[scope] = leaf
        else:
            roles[leaf] = (ShardRole.ROW, CollectiveKind.ALL_REDUCE)
            next_is_column[scope] = True
            pending_column.pop(scope, None)
    for leaf in pending_column.values():
        roles[leaf] = (ShardRole.COLUMN, CollectiveKind.ALL_GATHER)
    return roles


def reference_classes(trace: Trace) -> dict[str, tuple]:
    """Class table fields, one event at a time in trace order."""
    leaf_roles = reference_leaf_roles(trace)
    first_equal: dict = {}
    classes: dict = {}
    fields: dict[str, list] = {
        "ops": [], "roles": [], "collectives": [], "repeats": [], "index": [],
    }
    for event in trace.events:
        op = first_equal.setdefault(event.op, event.op)
        if op.param_bytes() > 0:
            role, collective = leaf_roles[event.module_path]
        elif op.category is OpCategory.ATTENTION:
            role, collective = ShardRole.HEAD, None
        else:
            role, collective = ShardRole.SEQUENCE, None
        key = (id(op), role, collective, event.repeat)
        cls = classes.get(key)
        if cls is None:
            cls = classes[key] = len(fields["ops"])
            fields["ops"].append(op)
            fields["roles"].append(role)
            fields["collectives"].append(collective)
            fields["repeats"].append(event.repeat)
        fields["index"].append(cls)
    return {name: tuple(values) for name, values in fields.items()}


def assert_matches_reference(trace: Trace) -> None:
    table = trace_classes(trace)
    expected = reference_classes(trace)
    for name, values in expected.items():
        assert getattr(table, name) == values, name
    # Each class keeps the first equal op object, as the reference does.
    assert all(a is b for a, b in zip(table.ops, expected["ops"]))
    assert table.index_array.tolist() == list(expected["index"])


def _replays(trace: Trace) -> list[Replay]:
    return [run for run in trace.runs_since(0) if type(run) is Replay]


class TestSuiteTraces:
    def test_suite_profiles(self, suite_profiles):
        for baseline, flash in suite_profiles.values():
            assert_matches_reference(baseline.trace)
            assert_matches_reference(flash.trace)

    @pytest.mark.parametrize(
        "name", ["stable_diffusion", "muse", "make_a_video"]
    )
    def test_flash_at_batch_8(self, name):
        trace = profile_model(
            model_instance(name), attention_impl=AttentionImpl.FLASH,
            batch=8,
        ).trace
        assert _replays(trace)
        assert_matches_reference(trace)


class Switch(Module):
    """Scope ``m`` holding two weight layers, ``x`` and ``y``: a call
    with a batch-2 input runs ``y``, any other runs ``x``."""

    def __init__(self):
        super().__init__(name="m")
        self.x = Linear(64, 64, name="x")
        self.y = Linear(64, 64, name="y")

    def forward(self, ctx, inp):
        return (self.y if inp.shape[0] == 2 else self.x)(ctx, inp)


class TestBoundaries:
    def test_memoized_leaf_shares_its_scope_with_siblings(self):
        # Per step, a/b/c alternate column/row/column in scope stepN;
        # from step 2 each Linear is replayed, and its only row is a
        # weight op at the replay's root: its role depends on the
        # siblings, not on the segment's own rows.
        a, b, c = (Linear(64, 64, name=name) for name in "abc")
        ctx = ExecutionContext()
        x = tensor(1, 64)
        for step in range(4):
            with ctx.named_scope(f"step{step}"):
                a(ctx, x)
                b(ctx, x)
                c(ctx, x)
        assert [run.base for run in _replays(ctx.trace)][:3] == ["step2."] * 3
        assert_matches_reference(ctx.trace)
        table = trace_classes(ctx.trace)
        roles = [
            (table.roles[cls], table.collectives[cls])
            for cls in table.index
        ]
        assert roles[-3:] == [
            (ShardRole.COLUMN, None),
            (ShardRole.ROW, CollectiveKind.ALL_REDUCE),
            (ShardRole.COLUMN, CollectiveKind.ALL_GATHER),
        ]

    def test_other_segment_under_a_replayed_root(self):
        # Scope s2 first replays x's call (one column leaf, left
        # pending), then y's call under the same root: y pairs with x
        # as a row, so x is not gathered after all.
        model = Switch()
        ctx = ExecutionContext()
        one, two = tensor(1, 64), tensor(2, 64)
        for scope, inp in (
            ("s0", one), ("s1", one), ("s2", one),
            ("s3", two), ("s4", two), ("s2", two),
        ):
            with ctx.named_scope(scope):
                model(ctx, inp)
        replays = _replays(ctx.trace)
        assert [run.base for run in replays] == ["s2.", "s2."]
        assert replays[0].segment is not replays[1].segment
        assert_matches_reference(ctx.trace)
        table = trace_classes(ctx.trace)
        s2_x, s2_y = table.index[2], table.index[5]
        assert [
            (table.roles[cls], table.collectives[cls]) for cls in (s2_x, s2_y)
        ] == [
            (ShardRole.COLUMN, None),
            (ShardRole.ROW, CollectiveKind.ALL_REDUCE),
        ]

    def test_root_populated_directly_then_replayed(self):
        # "m.y" is emitted first, directly, so "m.x" pairs with it as a
        # row; the later replays of x's call at the same root must keep
        # that role, not the segment's own pending column.
        model = Switch()
        ctx = ExecutionContext()
        model(ctx, tensor(2, 64))
        for _ in range(4):
            model(ctx, tensor(1, 64))
        assert [run.base for run in _replays(ctx.trace)] == ["", ""]
        assert_matches_reference(ctx.trace)
        table = trace_classes(ctx.trace)
        assert {
            (table.roles[cls], table.collectives[cls])
            for cls in table.index[1:]
        } == {(ShardRole.ROW, CollectiveKind.ALL_REDUCE)}
