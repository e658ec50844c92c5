"""Operator definitions.

Every layer in ``repro.layers`` lowers its forward pass to a sequence of
these operators — the analog of the CUDA kernels a PyTorch module would
launch.  Each operator knows its own FLOP count, bytes read/written and
(where relevant) parameter bytes, which is everything the kernel cost
models in ``repro.kernels`` need to produce a roofline execution time.

Operator *categories* follow the legend of Figure 6 in the paper
(Attention / Convolution / Linear / GroupNorm / Norm / Elementwise /
Embedding / Memory / Other) so operator-time breakdowns can be compared
directly against the published bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ir.dtypes import FP16, DType
from repro.ir.interned import IdentityEnum, Interned


class OpCategory(IdentityEnum):
    """Operator classes used in the paper's execution-time breakdowns."""

    ATTENTION = "attention"
    LINEAR = "linear"
    CONV = "conv"
    GROUPNORM = "groupnorm"
    NORM = "norm"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"
    MEMORY = "memory"
    OTHER = "other"


class AttentionRole(IdentityEnum):
    """Whether an attention op attends to the sequence itself or to text."""

    SELF = "self"
    CROSS = "cross"


class AttentionKind(IdentityEnum):
    """Spatial vs temporal attention (Section VI / Figure 10)."""

    SPATIAL = "spatial"
    TEMPORAL = "temporal"
    TOKEN = "token"  # ordinary 1D token attention (LLMs, transformer TTI)


@dataclass(frozen=True)
class AttentionInfo(metaclass=Interned):
    """Metadata attached to every kernel emitted by an attention layer.

    ``seq_q``/``seq_kv`` feed the sequence-length profiler (Figure 7/8);
    ``kind`` distinguishes spatial from temporal attention for the
    Figure 11/12 analyses.
    """

    role: AttentionRole
    kind: AttentionKind
    seq_q: int
    seq_kv: int
    head_dim: int
    num_heads: int
    batch: int
    element_stride_bytes: int = 0
    """Stride between successive sequence elements in memory.

    0 means contiguous. Temporal attention operates on a transposed view
    where consecutive frames are H*W*C elements apart (Figure 10)."""


@dataclass(frozen=True)
class Op(metaclass=Interned):
    """Base class for all operators.

    Subclasses implement :meth:`flops`, :meth:`read_bytes` and
    :meth:`write_bytes`; the default parameter footprint is zero.
    """

    name: str
    dtype: DType = field(default=FP16, kw_only=True)
    attention: AttentionInfo | None = field(default=None, kw_only=True)

    @property
    def category(self) -> OpCategory:
        """Breakdown bucket this op's time is charged to (Figure 6)."""
        raise NotImplementedError

    def flops(self) -> float:
        """Floating-point operations one launch executes."""
        raise NotImplementedError

    def read_bytes(self) -> float:
        """Bytes read from memory (activations + parameters)."""
        raise NotImplementedError

    def write_bytes(self) -> float:
        """Bytes written to memory."""
        raise NotImplementedError

    def param_bytes(self) -> float:
        """Bytes of trainable parameters this op reads (subset of reads)."""
        return 0.0

    def total_bytes(self) -> float:
        """Total bytes moved (reads + writes)."""
        return self.read_bytes() + self.write_bytes()

    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved; infinite for zero-traffic ops."""
        total = self.total_bytes()
        return self.flops() / total if total else math.inf


@dataclass(frozen=True)
class Gemm(Op):
    """(batched) matrix multiply: C[m,n] = A[m,k] @ B[k,n].

    Attributes:
        b_is_weight: the B operand is a model parameter shared across the
            batch (a ``Linear`` layer); it is read once, not per batch
            element.
        category_override: attention layers emit their QK^T / PV matmuls
            as Gemms but want them accounted under ATTENTION.
    """

    m: int
    n: int
    k: int
    batch: int = 1
    b_is_weight: bool = False
    category_override: OpCategory | None = None

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k, self.batch) <= 0:
            raise ValueError(f"invalid GEMM dims {self!r}")

    @property
    def category(self) -> OpCategory:
        if self.category_override is not None:
            return self.category_override
        return OpCategory.LINEAR

    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k * self.batch

    def read_bytes(self) -> float:
        a = self.m * self.k * self.batch
        b = self.k * self.n * (1 if self.b_is_weight else self.batch)
        return (a + b) * self.dtype.size

    def write_bytes(self) -> float:
        return float(self.m * self.n * self.batch * self.dtype.size)

    def param_bytes(self) -> float:
        if self.b_is_weight:
            return float(self.k * self.n * self.dtype.size)
        return 0.0


@dataclass(frozen=True)
class Conv2d(Op):
    """2D convolution, NCHW, square or rectangular kernels.

    ``h``/``w`` are *input* spatial dims; output dims derive from stride
    and (same-style) padding.
    """

    batch: int
    in_channels: int
    out_channels: int
    h: int
    w: int
    kh: int = 3
    kw: int = 3
    stride: int = 1
    groups: int = 1

    def __post_init__(self) -> None:
        if min(
            self.batch, self.in_channels, self.out_channels,
            self.h, self.w, self.kh, self.kw, self.stride, self.groups,
        ) <= 0:
            raise ValueError(f"invalid conv dims {self!r}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("channels must divide groups")

    @property
    def out_h(self) -> int:
        return max(1, self.h // self.stride)

    @property
    def out_w(self) -> int:
        return max(1, self.w // self.stride)

    @property
    def category(self) -> OpCategory:
        return OpCategory.CONV

    def weight_count(self) -> int:
        """Number of filter weights (excluding bias)."""
        return (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.kh
            * self.kw
        )

    def flops(self) -> float:
        return (
            2.0
            * self.batch
            * self.out_h
            * self.out_w
            * self.weight_count()
        )

    def read_bytes(self) -> float:
        activations = self.batch * self.in_channels * self.h * self.w
        return (activations + self.weight_count()) * self.dtype.size

    def write_bytes(self) -> float:
        return float(
            self.batch * self.out_channels * self.out_h * self.out_w
            * self.dtype.size
        )

    def param_bytes(self) -> float:
        return float(self.weight_count() * self.dtype.size)


@dataclass(frozen=True)
class Conv3d(Op):
    """3D (spatio-temporal) convolution used by TTV models.

    ``frames`` is the temporal extent; ``kt`` the temporal kernel size.
    TTV models substitute these for attention at high resolutions
    (Section II-B).
    """

    batch: int
    in_channels: int
    out_channels: int
    frames: int
    h: int
    w: int
    kt: int = 3
    kh: int = 3
    kw: int = 3
    stride: int = 1

    def __post_init__(self) -> None:
        if min(
            self.batch, self.in_channels, self.out_channels, self.frames,
            self.h, self.w, self.kt, self.kh, self.kw, self.stride,
        ) <= 0:
            raise ValueError(f"invalid conv3d dims {self!r}")

    @property
    def out_h(self) -> int:
        return max(1, self.h // self.stride)

    @property
    def out_w(self) -> int:
        return max(1, self.w // self.stride)

    @property
    def category(self) -> OpCategory:
        return OpCategory.CONV

    def weight_count(self) -> int:
        """Number of filter weights (excluding bias)."""
        return (
            self.out_channels * self.in_channels * self.kt * self.kh * self.kw
        )

    def flops(self) -> float:
        return (
            2.0 * self.batch * self.frames * self.out_h * self.out_w
            * self.weight_count()
        )

    def read_bytes(self) -> float:
        activations = (
            self.batch * self.in_channels * self.frames * self.h * self.w
        )
        return (activations + self.weight_count()) * self.dtype.size

    def write_bytes(self) -> float:
        return float(
            self.batch * self.out_channels * self.frames
            * self.out_h * self.out_w * self.dtype.size
        )

    def param_bytes(self) -> float:
        return float(self.weight_count() * self.dtype.size)


@dataclass(frozen=True)
class Softmax(Op):
    """Row-wise softmax over a [rows, cols] matrix.

    The baseline-attention softmax materializes the full similarity
    matrix; its effective bandwidth is decided by whether that matrix
    fits in cache (see ``repro.kernels.normalization``).
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if min(self.rows, self.cols) <= 0:
            raise ValueError(f"invalid softmax dims {self!r}")

    @property
    def category(self) -> OpCategory:
        return OpCategory.ATTENTION

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    def flops(self) -> float:
        # max, subtract, exp, sum, divide ~= 5 ops/element.
        return 5.0 * self.numel

    def read_bytes(self) -> float:
        # One pass for the max/sum statistics, one for normalization.
        return 2.0 * self.numel * self.dtype.size

    def write_bytes(self) -> float:
        return float(self.numel * self.dtype.size)


@dataclass(frozen=True)
class GroupNorm(Op):
    """GroupNorm over [batch, channels, spatial] activations.

    The paper finds GroupNorm takes 4-11% of diffusion-model execution
    time — it is pure bandwidth (two passes over the activation).
    """

    batch: int
    channels: int
    spatial: int
    groups: int = 32

    def __post_init__(self) -> None:
        if min(self.batch, self.channels, self.spatial, self.groups) <= 0:
            raise ValueError(f"invalid groupnorm dims {self!r}")

    @property
    def category(self) -> OpCategory:
        return OpCategory.GROUPNORM

    @property
    def numel(self) -> int:
        return self.batch * self.channels * self.spatial

    def flops(self) -> float:
        return 8.0 * self.numel

    def read_bytes(self) -> float:
        return 2.0 * self.numel * self.dtype.size

    def write_bytes(self) -> float:
        return float(self.numel * self.dtype.size)

    def param_bytes(self) -> float:
        return float(2 * self.channels * self.dtype.size)


@dataclass(frozen=True)
class LayerNorm(Op):
    """LayerNorm over [rows, cols] activations (transformer blocks)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if min(self.rows, self.cols) <= 0:
            raise ValueError(f"invalid layernorm dims {self!r}")

    @property
    def category(self) -> OpCategory:
        return OpCategory.NORM

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    def flops(self) -> float:
        return 8.0 * self.numel

    def read_bytes(self) -> float:
        return 2.0 * self.numel * self.dtype.size

    def write_bytes(self) -> float:
        return float(self.numel * self.dtype.size)

    def param_bytes(self) -> float:
        return float(2 * self.cols * self.dtype.size)


@dataclass(frozen=True)
class Elementwise(Op):
    """Pointwise kernel: activation functions, residual adds, scales.

    Attributes:
        numel: output element count.
        inputs: number of input tensors read (1 for GeLU, 2 for add).
        flops_per_element: arithmetic per output element.
    """

    numel: int
    inputs: int = 1
    flops_per_element: float = 1.0
    category_override: OpCategory | None = None

    def __post_init__(self) -> None:
        if self.numel <= 0 or self.inputs <= 0:
            raise ValueError(f"invalid elementwise dims {self!r}")

    @property
    def category(self) -> OpCategory:
        if self.category_override is not None:
            return self.category_override
        return OpCategory.ELEMENTWISE

    def flops(self) -> float:
        return self.flops_per_element * self.numel

    def read_bytes(self) -> float:
        return float(self.inputs * self.numel * self.dtype.size)

    def write_bytes(self) -> float:
        return float(self.numel * self.dtype.size)


@dataclass(frozen=True)
class Embedding(Op):
    """Token-embedding gather: ``tokens`` lookups of ``dim``-wide rows."""

    tokens: int
    dim: int
    vocab: int = 32000

    def __post_init__(self) -> None:
        if min(self.tokens, self.dim, self.vocab) <= 0:
            raise ValueError(f"invalid embedding dims {self!r}")

    @property
    def category(self) -> OpCategory:
        return OpCategory.EMBEDDING

    def flops(self) -> float:
        return 0.0

    def read_bytes(self) -> float:
        return float(self.tokens * self.dim * self.dtype.size)

    def write_bytes(self) -> float:
        return float(self.tokens * self.dim * self.dtype.size)

    def param_bytes(self) -> float:
        return float(self.vocab * self.dim * self.dtype.size)


@dataclass(frozen=True)
class Resample(Op):
    """Up/downsampling inside the UNet (nearest / bilinear interpolation).

    These reshape the latent between UNet stages and are the mechanism
    behind the cyclic sequence-length profile of Figure 7.
    """

    batch: int
    channels: int
    in_h: int
    in_w: int
    out_h: int
    out_w: int

    def __post_init__(self) -> None:
        if min(
            self.batch, self.channels, self.in_h, self.in_w,
            self.out_h, self.out_w,
        ) <= 0:
            raise ValueError(f"invalid resample dims {self!r}")

    @property
    def category(self) -> OpCategory:
        return OpCategory.MEMORY

    def flops(self) -> float:
        # ~4 ops/output element for bilinear blending.
        return 4.0 * self.batch * self.channels * self.out_h * self.out_w

    def read_bytes(self) -> float:
        return float(
            self.batch * self.channels * self.in_h * self.in_w
            * self.dtype.size
        )

    def write_bytes(self) -> float:
        return float(
            self.batch * self.channels * self.out_h * self.out_w
            * self.dtype.size
        )


@dataclass(frozen=True)
class Transpose(Op):
    """Layout change (e.g. the (B,F,HW) -> (B,HW,F) swap of Figure 10).

    Attention layers re-categorize their rearranges as ATTENTION: the
    module-hook attribution the paper uses charges these copies to the
    attention module that issues them.
    """

    numel: int
    category_override: OpCategory | None = None

    def __post_init__(self) -> None:
        if self.numel <= 0:
            raise ValueError(f"invalid transpose size {self!r}")

    @property
    def category(self) -> OpCategory:
        if self.category_override is not None:
            return self.category_override
        return OpCategory.MEMORY

    def flops(self) -> float:
        return 0.0

    def read_bytes(self) -> float:
        return float(self.numel * self.dtype.size)

    def write_bytes(self) -> float:
        return float(self.numel * self.dtype.size)


@dataclass(frozen=True)
class FusedAttention(Op):
    """Flash-Attention-style fused kernel.

    Same FLOPs as the unfused sequence, but HBM traffic is only the
    Q/K/V inputs and the output — the N x N similarity matrix never
    leaves on-chip memory.  This is exactly the optimization the paper
    evaluates (Section IV).
    """

    batch: int
    seq_q: int
    seq_kv: int
    head_dim: int
    num_heads: int
    causal: bool = False

    def __post_init__(self) -> None:
        if min(
            self.batch, self.seq_q, self.seq_kv, self.head_dim,
            self.num_heads,
        ) <= 0:
            raise ValueError(f"invalid attention dims {self!r}")

    @property
    def category(self) -> OpCategory:
        return OpCategory.ATTENTION

    def _pair_fraction(self) -> float:
        # Causal masking halves the scored pairs (only when square).
        if self.causal and self.seq_q == self.seq_kv:
            return 0.5
        return 1.0

    def flops(self) -> float:
        pairs = (
            self.batch * self.num_heads * self.seq_q * self.seq_kv
            * self._pair_fraction()
        )
        matmul = 4.0 * pairs * self.head_dim  # QK^T and PV
        softmax = 5.0 * pairs
        return matmul + softmax

    def read_bytes(self) -> float:
        q = self.batch * self.num_heads * self.seq_q * self.head_dim
        kv = 2 * self.batch * self.num_heads * self.seq_kv * self.head_dim
        return float((q + kv) * self.dtype.size)

    def write_bytes(self) -> float:
        return float(
            self.batch * self.num_heads * self.seq_q * self.head_dim
            * self.dtype.size
        )
