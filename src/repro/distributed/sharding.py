"""Per-operator sharding rules.

The partitioners in :mod:`repro.distributed.partition` decide *which*
split each trace event gets (Megatron column/row placement, head
parallelism, sequence parallelism, batch slicing); this module knows
*how* to apply a split to each operator type.  All splits divide an
integer dimension with the largest-remainder method, so the shards'
FLOPs sum to the unsharded operator's FLOPs exactly — the invariant the
partitioner tests rely on (every op's ``flops()`` is linear in the
dimension its rule splits).

A rank whose share of the split dimension is zero gets ``None`` — that
device simply does not launch the kernel (e.g. a 3-channel VAE resample
sharded 8 ways, or a batch-1 op under data parallelism).
"""

from __future__ import annotations

from dataclasses import replace

from repro.ir.interned import IdentityEnum
from repro.ir.ops import (
    Conv2d,
    Conv3d,
    Elementwise,
    Embedding,
    FusedAttention,
    Gemm,
    GroupNorm,
    LayerNorm,
    Op,
    Resample,
    Softmax,
    Transpose,
)


class ShardRole(IdentityEnum):
    """How one trace event is split across a tensor-parallel group."""

    COLUMN = "column"        # weight op, output-feature split (no comm)
    ROW = "row"              # weight op, input-feature split (all-reduce)
    HEAD = "head"            # attention math, head/batch split
    SEQUENCE = "sequence"    # activation op, token/element split
    BATCH = "batch"          # data-parallel sample split


def proportional_split(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder method: the parts sum to ``total`` exactly, and a
    zero weight always yields a zero part.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights or any(w < 0 for w in weights):
        raise ValueError("weights must be non-empty and non-negative")
    weight_sum = sum(weights)
    if weight_sum == 0:
        raise ValueError("at least one weight must be positive")
    # Exact integer arithmetic throughout: a float implementation loses
    # units once ``total * weight`` approaches 2**53 (token- or
    # parameter-count splits), leaving the parts sum off by dozens.
    # Remainders share the denominator ``weight_sum``, so comparing the
    # numerators ranks fractions exactly.
    scaled = [total * w for w in weights]
    parts = [s // weight_sum for s in scaled]
    remainder = total - sum(parts)
    by_fraction = sorted(
        range(len(weights)),
        key=lambda i: (scaled[i] % weight_sum, weights[i]),
        reverse=True,
    )
    for i in by_fraction[:remainder]:
        parts[i] += 1
    return parts


def even_split(total: int, parts: int) -> list[int]:
    """Split ``total`` as evenly as possible into ``parts`` integers."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    return proportional_split(total, [1] * parts)


def _replace_dim(op: Op, dim_name: str, parts: list[int]) -> list[Op | None]:
    """Per-rank copies of ``op`` with ``dim_name`` set to each part.

    A rank whose part is the whole dimension runs ``op`` itself.
    """
    shards: list[Op | None] = []
    cache: dict[int, Op] = {getattr(op, dim_name): op}
    for part in parts:
        if part == 0:
            shards.append(None)
        else:
            if part not in cache:
                cache[part] = replace(op, **{dim_name: part})
            shards.append(cache[part])
    return shards


def split_dim_name(op: Op, role: ShardRole) -> str:
    """Name of the integer field the given split divides on ``op``.

    Raises ``TypeError`` for operator types without a rule — the
    partitioner is expected to cover every type the layers emit.
    """
    if isinstance(op, Gemm):
        if role is ShardRole.COLUMN:
            return "n"
        if role is ShardRole.ROW:
            return "k"
        if role is ShardRole.HEAD:
            # Attention QK^T/PV batched GEMMs: batch folds batch*heads.
            return "batch" if op.batch > 1 else "m"
        return "batch" if op.batch > 1 else "m"
    if isinstance(op, FusedAttention):
        return "num_heads" if role is not ShardRole.BATCH else "batch"
    if isinstance(op, (Conv2d, Conv3d)):
        if role is ShardRole.COLUMN:
            return "out_channels"
        if role is ShardRole.ROW:
            return "in_channels"
        return "batch"
    if isinstance(op, Softmax):
        return "rows"
    if isinstance(op, LayerNorm):
        return "rows"
    if isinstance(op, GroupNorm):
        return "spatial" if role is not ShardRole.BATCH else "batch"
    if isinstance(op, (Elementwise, Transpose)):
        return "numel"
    if isinstance(op, Embedding):
        return "tokens"
    if isinstance(op, Resample):
        return "channels" if role is not ShardRole.BATCH else "batch"
    raise TypeError(f"no sharding rule for operator type {type(op).__name__}")


def _splittable(op: Op, role: ShardRole, dim_name: str) -> bool:
    """Whether the chosen split keeps the op constructible on a shard."""
    if isinstance(op, Conv2d) and op.groups > 1:
        # Channel splits of grouped convs can violate group divisibility;
        # fall back to batch slicing (one rank runs the whole kernel).
        return dim_name not in ("in_channels", "out_channels")
    return True


def shard_op(op: Op, role: ShardRole, weights: list[int]) -> list[Op | None]:
    """Split one operator across ranks according to ``role``.

    ``weights`` gives each rank's share of the split dimension
    (``[1] * world`` for tensor parallelism, per-rank batch sizes for
    data parallelism).  Returns one op (or ``None``) per rank; the
    shards' total FLOPs equal the original's exactly.
    """
    dim_name = split_dim_name(op, role)
    if not _splittable(op, role, dim_name):
        dim_name = "batch"
    total = getattr(op, dim_name)
    parts = proportional_split(total, weights)
    return _replace_dim(op, dim_name, parts)
