"""Roofline model (Figure 5).

The paper places every model in the suite on an A100 roofline, computing
arithmetic intensity as the ratio of FLOPs to *required model capacity*
(bytes of parameters touched), and observes that diffusion models sit in
the compute-bound region — up to ~100x the intensity of transformer TTI
models — because tens of denoising iterations reuse the same parameters.
"""

from __future__ import annotations

from repro.hw.spec import GPUSpec
from repro.ir.dtypes import FP16, DType


def classify_bound(spec: GPUSpec, intensity: float, dtype: DType = FP16) -> str:
    """Whether a workload of this intensity is compute- or memory-bound."""
    return "compute" if intensity >= spec.ridge_point(dtype) else "memory"
