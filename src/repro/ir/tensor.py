"""Symbolic tensor specifications.

Models in this repository are *operator graphs*, not numeric programs: a
``TensorSpec`` carries only shape and dtype, which is all the performance
model needs (FLOPs, bytes moved and parameter counts are pure functions
of shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ir.dtypes import FP16, DType
from repro.ir.interned import Interned


@dataclass(frozen=True)
class TensorSpec(metaclass=Interned):
    """Shape + dtype description of a tensor flowing between operators.

    Attributes:
        shape: tuple of positive dimension sizes. A zero-rank tuple is a
            scalar.
        dtype: element type; defaults to FP16, the precision the paper's
            characterization uses throughout.
    """

    shape: tuple[int, ...]
    dtype: DType = field(default=FP16)

    def __post_init__(self) -> None:
        for dim in self.shape:
            if not isinstance(dim, int) or dim <= 0:
                raise ValueError(f"invalid tensor shape {self.shape!r}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def bytes(self) -> int:
        """Total storage footprint in bytes."""
        return self.numel * self.dtype.size

    def with_shape(self, *shape: int) -> "TensorSpec":
        """Return a spec with the same dtype and a new shape."""
        return TensorSpec(tuple(shape), self.dtype)

    def reshape(self, *shape: int) -> "TensorSpec":
        """Reshape, validating that the element count is preserved."""
        new = TensorSpec(tuple(shape), self.dtype)
        if new.numel != self.numel:
            raise ValueError(
                f"cannot reshape {self.shape} ({self.numel} elements) to "
                f"{shape} ({new.numel} elements)"
            )
        return new

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"{dims}:{self.dtype.name}"


def tensor(*shape: int, dtype: DType = FP16) -> TensorSpec:
    """Convenience constructor: ``tensor(2, 4096, 320)``."""
    return TensorSpec(tuple(shape), dtype)
