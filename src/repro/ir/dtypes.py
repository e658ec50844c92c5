"""Numeric data types for symbolic tensors.

The characterization in the paper runs all models in half precision
(FP16, 2 bytes/element); the analytical memory formulas in Section V
explicitly assume 2 bytes per parameter.  We still model the full set of
dtypes so the roofline (Figure 5) can distinguish tensor-core eligible
precisions from CUDA-core ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.interned import IdentityEnum, Interned


class DTypeKind(IdentityEnum):
    """Coarse numeric family of a dtype."""

    FLOAT = "float"
    INT = "int"
    BOOL = "bool"


@dataclass(frozen=True)
class DType(metaclass=Interned):
    """A numeric element type.

    Attributes:
        name: canonical short name, e.g. ``"fp16"``.
        size: element size in bytes.
        kind: float/int/bool classification.
        tensor_core: whether A100-class tensor cores accelerate GEMMs in
            this precision.
    """

    name: str
    size: int
    kind: DTypeKind
    tensor_core: bool

    def __str__(self) -> str:
        return self.name

    @property
    def bits(self) -> int:
        return self.size * 8


FP32 = DType("fp32", 4, DTypeKind.FLOAT, tensor_core=False)
TF32 = DType("tf32", 4, DTypeKind.FLOAT, tensor_core=True)
FP16 = DType("fp16", 2, DTypeKind.FLOAT, tensor_core=True)
BF16 = DType("bf16", 2, DTypeKind.FLOAT, tensor_core=True)
FP8 = DType("fp8", 1, DTypeKind.FLOAT, tensor_core=True)
INT8 = DType("int8", 1, DTypeKind.INT, tensor_core=True)
INT32 = DType("int32", 4, DTypeKind.INT, tensor_core=False)
INT64 = DType("int64", 8, DTypeKind.INT, tensor_core=False)
BOOL = DType("bool", 1, DTypeKind.BOOL, tensor_core=False)

_BY_NAME = {
    dt.name: dt
    for dt in (FP32, TF32, FP16, BF16, FP8, INT8, INT32, INT64, BOOL)
}


def dtype_from_name(name: str) -> DType:
    """Look up a dtype by its canonical name (e.g. ``"fp16"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown dtype {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
