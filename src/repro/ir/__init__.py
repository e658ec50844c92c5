"""Tensor/operator intermediate representation.

The IR layer gives the repository its ``torch``-shaped substrate:
symbolic tensors (:mod:`repro.ir.tensor`), operators that know their own
FLOPs and bytes (:mod:`repro.ir.ops`), a module tree whose calls
annotate each kernel with its module path and replay recorded
subgraphs (:mod:`repro.ir.module`), and the execution context + trace
machinery that turns a forward pass into a costed kernel timeline.
"""

from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.dtypes import BF16, BOOL, FP8, FP16, FP32, INT8, INT32, INT64, TF32, DType, dtype_from_name
from repro.ir.module import Module
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
from repro.ir.tensor import TensorSpec, tensor
from repro.ir.trace import KernelCost, Trace, TraceEvent

__all__ = [
    "AttentionImpl",
    "AttentionInfo",
    "AttentionKind",
    "AttentionRole",
    "BF16",
    "BOOL",
    "Conv2d",
    "Conv3d",
    "DType",
    "Elementwise",
    "Embedding",
    "ExecutionContext",
    "FP8",
    "FP16",
    "FP32",
    "FusedAttention",
    "Gemm",
    "GroupNorm",
    "INT8",
    "INT32",
    "INT64",
    "KernelCost",
    "LayerNorm",
    "Module",
    "Op",
    "OpCategory",
    "Resample",
    "Softmax",
    "TF32",
    "TensorSpec",
    "Trace",
    "TraceEvent",
    "Transpose",
    "dtype_from_name",
    "tensor",
]
