"""Interned IR values: every construction path returns the one object
that holds a value, equal values are identical, and hashes are
identities."""

import copy
import dataclasses
import pickle

import pytest

from repro.distributed.collectives import CollectiveKind
from repro.distributed.sharding import ShardRole, shard_op
from repro.ir import interned
from repro.ir.context import AttentionImpl
from repro.ir.dtypes import BF16, FP32, DType, DTypeKind
from repro.ir.ops import (
    AttentionInfo,
    AttentionKind,
    AttentionRole,
    Conv2d,
    Conv3d,
    Elementwise,
    Embedding,
    FusedAttention,
    Gemm,
    GroupNorm,
    LayerNorm,
    Op,
    OpCategory,
    Resample,
    Softmax,
    Transpose,
)
from repro.ir.tensor import TensorSpec
from repro.ir.trace import TraceEvent
from repro.profiler.profiler import _PROFILE_CACHE


@dataclasses.dataclass(frozen=True)
class Probe(Op):
    """An op type defined outside ``repro.ir.ops``."""

    size: int
    scale: float = 2.0


INFO = AttentionInfo(
    role=AttentionRole.CROSS, kind=AttentionKind.TEMPORAL, seq_q=16,
    seq_kv=77, head_dim=64, num_heads=8, batch=2,
)
# One value of every interned type, built with every field spelled out.
VALUES = [
    Gemm(
        "g", m=64, n=32, k=16, batch=2, b_is_weight=True,
        category_override=OpCategory.ATTENTION, dtype=BF16, attention=INFO,
    ),
    Conv2d(
        "c", batch=2, in_channels=8, out_channels=16, h=32, w=32, kh=3,
        kw=3, stride=1, groups=2,
    ),
    Conv3d(
        "c3", batch=1, in_channels=4, out_channels=8, frames=4, h=8, w=8,
        kt=3, kh=3, kw=3, stride=2,
    ),
    Softmax("s", rows=128, cols=77, dtype=FP32),
    GroupNorm("gn", batch=2, channels=64, spatial=256, groups=32),
    LayerNorm("ln", rows=77, cols=768),
    Elementwise(
        "e", numel=4096, inputs=2, flops_per_element=1.0,
        category_override=None,
    ),
    Embedding("emb", tokens=77, dim=768, vocab=49408),
    Resample(
        "up", batch=2, channels=64, in_h=8, in_w=8, out_h=16, out_w=16,
    ),
    Transpose("t", numel=4096, category_override=OpCategory.ATTENTION),
    FusedAttention(
        "fa", batch=2, seq_q=16, seq_kv=77, head_dim=64, num_heads=8,
        causal=True, attention=INFO,
    ),
    Probe("probe", size=3, scale=2.0),
    INFO,
    DType("fp16", 2, DTypeKind.FLOAT, tensor_core=True),
    TensorSpec((2, 4, 8), BF16),
]
IDS = [type(value).__name__ for value in VALUES]


def _field_values(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


@pytest.mark.parametrize("value", VALUES, ids=IDS)
class TestOneObjectPerValue:
    def test_keyword_spelling(self, value):
        assert type(value)(**_field_values(value)) is value

    def test_positional_spelling(self, value):
        fields = dataclasses.fields(value)
        args = [getattr(value, f.name) for f in fields if not f.kw_only]
        kwargs = {f.name: getattr(value, f.name) for f in fields if f.kw_only}
        assert type(value)(*args, **kwargs) is value

    def test_defaulted_spelling(self, value):
        kwargs = {
            f.name: getattr(value, f.name)
            for f in dataclasses.fields(value)
            if f.default is dataclasses.MISSING
            or getattr(value, f.name) is not f.default
        }
        assert type(value)(**kwargs) is value

    def test_replace_copy_and_pickle(self, value):
        assert dataclasses.replace(value) is value
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value

    def test_replace_with_changes(self, value):
        name = next(
            f.name for f in dataclasses.fields(value)
            if type(getattr(value, f.name)) in (int, tuple)
        )
        old = getattr(value, name)
        new = old[::-1] if isinstance(old, tuple) else old + 1
        changed = dataclasses.replace(value, **{name: new})
        assert changed is not value
        assert changed is type(value)(**{**_field_values(value), name: new})
        assert dataclasses.replace(changed, **{name: old}) is value

    def test_hash_and_equality_are_identity(self, value):
        assert type(value).__eq__ is object.__eq__
        assert hash(value) == object.__hash__(value)


def test_tensor_spec_reshapes_are_interned():
    spec = TensorSpec((2, 4, 8), BF16)
    assert spec.reshape(8, 8).reshape(2, 4, 8) is spec
    assert spec.with_shape(2, 4, 8) is spec
    assert spec.reshape(64) is TensorSpec((64,), BF16)


def test_shards_are_the_interned_ops():
    gemm = Gemm("g", m=64, n=32, k=16, b_is_weight=True)
    half = Gemm("g", m=64, n=16, k=16, b_is_weight=True)
    assert shard_op(gemm, ShardRole.COLUMN, [1, 1]) == [half, half]
    assert shard_op(gemm, ShardRole.COLUMN, [1])[0] is gemm
    softmax = Softmax("s", rows=10, cols=7)
    parts = shard_op(softmax, ShardRole.SEQUENCE, [2, 3])
    assert parts[0] is Softmax("s", rows=4, cols=7)
    assert parts[1] is Softmax("s", rows=6, cols=7)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gemm("g", m=0, n=4, k=4), "invalid GEMM dims"),
        (lambda: Conv2d("c", 1, 3, 8, 8, 8, groups=2), "divide groups"),
        (lambda: Elementwise("e", numel=-1), "invalid elementwise dims"),
        (lambda: TensorSpec((2, 0)), "invalid tensor shape"),
        (lambda: TensorSpec((2, 1.5)), "invalid tensor shape"),
    ],
)
def test_invalid_values_raise_and_leave_no_entry(build, message):
    before = len(interned._VALUES)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            build()
    assert len(interned._VALUES) == before


def test_equal_values_of_other_types_stay_apart():
    ones = [
        Elementwise("e", numel=8, flops_per_element=1),
        Elementwise("e", numel=8, flops_per_element=1.0),
        Elementwise("e", numel=8, flops_per_element=True),
    ]
    assert len({id(op) for op in ones}) == 3
    assert [type(op.flops_per_element) for op in ones] == [int, float, bool]
    assert Elementwise("e", numel=8) is ones[1]
    specs = [TensorSpec((1, 2)), TensorSpec((True, 2))]
    assert specs[0] is not specs[1]
    assert type(specs[1].shape[0]) is bool


def test_bad_arguments_raise_the_constructors_error():
    with pytest.raises(TypeError, match="__init__"):
        Gemm("g", m=1, n=1)
    with pytest.raises(TypeError, match="__init__"):
        TensorSpec((1,), BF16, 3)


@pytest.mark.parametrize(
    "enum_type",
    [
        OpCategory, AttentionRole, AttentionKind, DTypeKind, AttentionImpl,
        ShardRole, CollectiveKind,
    ],
)
def test_ir_enums_hash_by_identity(enum_type):
    assert enum_type.__hash__ is object.__hash__
    for member in enum_type:
        assert hash(member) == object.__hash__(member)


def _interned_parts(value, out):
    """``value`` and every interned value it holds, into ``out``."""
    if type(type(value)) is interned.Interned:
        out[id(value)] = value
        for field in dataclasses.fields(value):
            _interned_parts(getattr(value, field.name), out)
    elif isinstance(value, tuple):
        for item in value:
            _interned_parts(item, out)


def test_session_traces_hold_one_object_per_value(suite_profiles, results):
    """Every op, attention info, dtype and tensor spec that the suite
    traces and the battery's recordings (dist2's among them) hold, with
    the specs of their replay outputs and memo keys: no two distinct
    objects hold equal fields."""
    values: dict[int, object] = {}
    traces = [p.trace for pair in suite_profiles.values() for p in pair]
    recordings = 0
    for model, table in _PROFILE_CACHE.items():
        for key, entry in table.items():
            if len(key) == 2:
                recordings += key[1] > 1
                traces.append(entry)
        for module in model.modules():
            _interned_parts(tuple(module._memo), values)
    assert recordings, "no recording at batch > 1 (dist2's) to walk"
    segments = {}
    for trace in traces:
        for run in trace.runs_since(0):
            if type(run) is TraceEvent:
                _interned_parts(run.op, values)
            else:
                segments[id(run.segment)] = run.segment
    for segment in segments.values():
        _interned_parts(segment.output, values)
        for _, op, _, _, _ in segment.rows:
            _interned_parts(op, values)
    by_value: dict[tuple, object] = {}
    for value in values.values():
        first = by_value.setdefault((type(value), repr(value)), value)
        assert first is value, f"two objects hold {value!r}"
    kinds = {type(value) for value in values.values()}
    assert {Gemm, TensorSpec, AttentionInfo, DType} <= kinds
