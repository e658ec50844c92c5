"""The class table read from trace rows equals a per-event build.

:func:`trace_classes` never builds replayed module calls into events:
a replay whose root is closed takes its segment's own table, and every
other row goes through one role pass and one class pass.  The reference
here is the per-event build that preceded it: one pass assigning
Megatron roles by module path over the built events, one pass mapping
every event to its class.  Suite traces pin the equality at scale.  Toy
models pin the places where a replay's roles depend on what surrounds
it, so a table copied from the replayed segment's own rows would be
wrong: a memoized leaf whose weight shares its scope with sibling
layers, two different segments replayed under one root, a root first
populated by direct emission, a replay root nested under another
replay's root, and a root a later direct emission reaches.  A
Hypothesis property drives random call sequences of a small module zoo
under a few scopes.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import trace_classes
from repro.distributed.sharding import ShardRole
from repro.experiments.suite_cache import model_instance
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import Elementwise, Gemm, OpCategory
from repro.ir.tensor import tensor
from repro.ir.trace import Replay, Trace
from repro.layers.attention import MultiHeadAttention
from repro.layers.linear import FeedForward, Linear
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

    def test_replay_root_nested_under_another_replay_root(self):
        # Under "s", the wrapper's call with `one` replays (root s.w,
        # rows s.w.m.x) and its call with `two` runs, replaying the
        # switch inside it (root s.w.m, rows s.w.m.y).  Both replays
        # write scope s.w.m, where y pairs with x as a row: each
        # segment's own table would leave its leaf a gathered column.
        model = Wrapper()
        ctx = ExecutionContext()
        one, two = tensor(1, 64), tensor(2, 64)
        for scope, module, inp in (
            ("a0", model, one), ("a1", model, one),
            ("t0", model.m, two), ("t1", model.m, two),
            ("s", model, one), ("s", model, two),
        ):
            with ctx.named_scope(scope):
                module(ctx, inp)
        assert [run.base for run in _replays(ctx.trace)] == ["s.", "s.w."]
        assert_matches_reference(ctx.trace)
        table = trace_classes(ctx.trace)
        assert [
            (table.roles[cls], table.collectives[cls])
            for cls in table.index[-2:]
        ] == [
            (ShardRole.COLUMN, None),
            (ShardRole.ROW, CollectiveKind.ALL_REDUCE),
        ]

    def test_root_reached_by_a_later_direct_emission(self):
        # The replay under s2 (root s2.m) is the only run with that root
        # when it is appended; the switch's first call with `two` then
        # runs under s2 and emits y at s2.m.y, pairing it with x.
        model = Switch()
        ctx = ExecutionContext()
        one, two = tensor(1, 64), tensor(2, 64)
        for scope, inp in (
            ("s0", one), ("s1", one), ("s2", one), ("s2", two),
        ):
            with ctx.named_scope(scope):
                model(ctx, inp)
        runs = ctx.trace.runs_since(0)
        assert [type(run) is Replay for run in runs] == [
            False, False, True, False,
        ]
        assert runs[-1].module_path == "s2.m.y"
        assert_matches_reference(ctx.trace)
        table = trace_classes(ctx.trace)
        assert [
            (table.roles[cls], table.collectives[cls])
            for cls in table.index[2:]
        ] == [
            (ShardRole.COLUMN, None),
            (ShardRole.ROW, CollectiveKind.ALL_REDUCE),
        ]


class Wrapper(Module):
    """Scope ``w`` around a :class:`Switch` it calls with its input."""

    def __init__(self):
        super().__init__(name="w")
        self.m = Switch()

    def forward(self, ctx, inp):
        return self.m(ctx, inp)


class Pair(Module):
    """Scope ``p`` calling a :class:`Switch` with its input, then with
    the other batch size, so ``x`` and ``y`` share one scope."""

    def __init__(self, switch: Switch):
        super().__init__(name="p")
        self.m = switch

    def forward(self, ctx, inp):
        self.m(ctx, inp)
        return self.m(ctx, tensor(3 - inp.shape[0], *inp.shape[1:]))


def module_zoo() -> tuple[Module, ...]:
    """Fresh memoizing modules, all taking ``(b, 8, 64)`` inputs, b 1 or 2.

    Names collide on purpose: the standalone Linears ``x`` and ``up``
    share their names with the switch's and the MLP's layers, and the
    pair calls the zoo's own switch, so roots and emitted paths of
    different modules meet.
    """
    switch = Switch()
    return (
        Linear(64, 64, name="x"),
        Linear(64, 64, name="up"),
        FeedForward(64, 128, name="mlp"),
        switch,
        Pair(switch),
        MultiHeadAttention(64, 4, name="attn"),
    )


SCOPES = ("", "i2")
WEIGHT = Gemm("w", m=8, n=64, k=64, b_is_weight=True)
ACTIVATION = Elementwise("act", numel=512)

# One step under one of SCOPES: call a zoo module once, call it in a
# loop of three scopes i0, i1, i2 (as a denoising loop does), or emit
# one op directly under a leaf.
STEPS = st.one_of(
    st.tuples(
        st.sampled_from(("call", "loop")), st.sampled_from(range(6)),
        st.sampled_from(SCOPES), st.sampled_from((1, 2)),
    ),
    st.tuples(
        st.just("emit"), st.sampled_from((WEIGHT, ACTIVATION)),
        st.sampled_from(SCOPES), st.sampled_from(("x", "m.y", "p.m.y")),
    ),
)


def _scoped(ctx: ExecutionContext, path: str) -> ExitStack:
    scopes = ExitStack()
    for name in path.split(".") if path else ():
        scopes.enter_context(ctx.named_scope(name))
    return scopes


@settings(max_examples=300, deadline=None)
@given(st.lists(STEPS, min_size=1, max_size=20))
# The pair's replay at i2.p, then its first call with the other batch
# size under i2, which replays the switch at i2.p.m: nested roots.
@example([("loop", 4, "", 1), ("call", 4, "i2", 2)])
def test_random_call_sequences_match_reference(steps):
    zoo = module_zoo()
    ctx = ExecutionContext()
    for kind, what, scope, arg in steps:
        with _scoped(ctx, scope):
            if kind == "emit":
                with ctx.named_scope(arg):
                    ctx.emit(what)
                continue
            for loop in range(3 if kind == "loop" else 1):
                with _scoped(ctx, f"i{loop}" if kind == "loop" else ""):
                    zoo[what](ctx, tensor(arg, 8, 64))
    assert_matches_reference(ctx.trace)
