"""Hardware substrate: GPU specs, roofline, caches, memory system."""

from repro.hw.cache import CacheHierarchy, CacheStats, HierarchyStats, SetAssociativeCache
from repro.hw.memory import CONTIGUOUS, AccessPattern, MemorySystem
from repro.hw.roofline import classify_bound
from repro.hw.spec import (
    A100_40GB,
    A100_80GB,
    H100_80GB,
    MI300X_192GB,
    PRESETS,
    V100_32GB,
    CacheSpec,
    GPUSpec,
    gpu_from_name,
)

__all__ = [
    "A100_40GB",
    "A100_80GB",
    "AccessPattern",
    "CONTIGUOUS",
    "CacheHierarchy",
    "CacheSpec",
    "CacheStats",
    "GPUSpec",
    "H100_80GB",
    "HierarchyStats",
    "MI300X_192GB",
    "MemorySystem",
    "PRESETS",
    "SetAssociativeCache",
    "V100_32GB",
    "classify_bound",
    "gpu_from_name",
]
