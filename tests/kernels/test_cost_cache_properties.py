"""Property tests: the kernel-cost cache is transparent and safe.

Hypothesis drives random operator shapes, dtypes and machine variants
through the shared cost cache and checks the two load-bearing
contracts:

* **Transparency** — a cached lookup returns exactly the cost the
  uncached formulas produce, for any operator on any machine; hits and
  misses are value-indistinguishable.
* **No aliasing across machines** — any change to a priced GPU-spec
  field produces a different machine token, so a mutated machine can
  never be served a cost computed for the original (and vice versa).

It also checks that every priced kernel stays under its machine's roof.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spec import A100_80GB, H100_80GB, PRESETS, GPUSpec
from repro.ir.dtypes import BF16, FP8, FP16, FP32
from repro.ir.ops import Conv2d, Elementwise, Gemm, LayerNorm, Softmax
from repro.kernels.cache import (
    GLOBAL_COST_CACHE,
    KernelCostCache,
    machine_token,
)
from repro.kernels.base import DEFAULT_TUNING
from repro.kernels.estimator import CostEstimator

dims = st.integers(min_value=1, max_value=2048)
small_dims = st.integers(min_value=1, max_value=64)
dtypes = st.sampled_from([FP16, BF16, FP32, FP8])

gemms = st.builds(
    lambda m, n, k, batch, weight, dtype: Gemm(
        "g", m=m, n=n, k=k, batch=batch, b_is_weight=weight,
        dtype=dtype,
    ),
    m=dims, n=dims, k=dims,
    batch=st.integers(min_value=1, max_value=16),
    weight=st.booleans(),
    dtype=dtypes,
)
convs = st.builds(
    lambda batch, cin, cout, size, kernel, stride, dtype: Conv2d(
        "c", batch=batch, in_channels=cin, out_channels=cout,
        h=size, w=size, kh=kernel, kw=kernel, stride=stride,
        dtype=dtype,
    ),
    batch=st.integers(min_value=1, max_value=4),
    cin=small_dims, cout=small_dims,
    size=st.integers(min_value=4, max_value=128),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    dtype=dtypes,
)
bandwidth_ops = st.one_of(
    st.builds(
        lambda rows, cols, dtype: Softmax(
            "s", rows=rows, cols=cols, dtype=dtype
        ),
        rows=dims, cols=dims, dtype=dtypes,
    ),
    st.builds(
        lambda rows, cols, dtype: LayerNorm(
            "l", rows=rows, cols=cols, dtype=dtype
        ),
        rows=dims, cols=dims, dtype=dtypes,
    ),
    st.builds(
        lambda numel, inputs, dtype: Elementwise(
            "e", numel=numel, inputs=inputs, dtype=dtype
        ),
        numel=st.integers(min_value=1, max_value=1 << 24),
        inputs=st.integers(min_value=1, max_value=3),
        dtype=dtypes,
    ),
)
ops = st.one_of(gemms, convs, bandwidth_ops)
machines = st.sampled_from([A100_80GB, H100_80GB])

# Every GPUSpec field the machine token fingerprints, with a
# perturbation that keeps the spec valid.
_PRICED_FIELD_PERTURBATIONS = {
    "name": lambda value: value + "-mut",
    "sm_count": lambda value: value + 1,
    "vector_flops": lambda value: value * 1.01,
    "dram_bandwidth": lambda value: value * 1.01,
    "dram_capacity": lambda value: value + 1,
    "kernel_launch_overhead_s": lambda value: value * 2.0,
}
priced_fields = st.sampled_from(sorted(_PRICED_FIELD_PERTURBATIONS))


class TestTransparency:
    @given(op=ops, gpu=machines)
    @settings(max_examples=80, deadline=None)
    def test_cached_equals_uncached(self, op, gpu):
        cached = CostEstimator(gpu, use_cache=True)
        uncached = CostEstimator(gpu, use_cache=False)
        assert cached.estimate(op) == uncached.estimate(op)

    @given(op=ops, gpu=machines)
    @settings(max_examples=80, deadline=None)
    def test_hit_returns_the_missed_value(self, op, gpu):
        estimator = CostEstimator(gpu, use_cache=True)
        first = estimator.estimate(op)  # may miss
        second = estimator.estimate(op)  # must hit
        assert first == second
        assert second == estimator.compute_estimate(op)

    @given(op=ops, gpu=machines)
    @settings(max_examples=40, deadline=None)
    def test_hits_are_counted(self, op, gpu):
        estimator = CostEstimator(gpu, use_cache=True)
        estimator.estimate(op)  # populate
        before = GLOBAL_COST_CACHE.stats()
        estimator.estimate(op)
        after = GLOBAL_COST_CACHE.stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    @given(op=ops)
    @settings(max_examples=40, deadline=None)
    def test_estimators_share_one_table(self, op):
        """Two estimators on content-equal machines share entries."""
        first = CostEstimator(A100_80GB, use_cache=True)
        copy = dataclasses.replace(A100_80GB)
        second = CostEstimator(copy, use_cache=True)
        assert first.cache_token == second.cache_token
        assert first.estimate(op) == second.estimate(op)


class TestInvalidation:
    @given(op=ops, gpu=machines, field=priced_fields)
    @settings(max_examples=80, deadline=None)
    def test_mutated_spec_never_aliases(self, op, gpu, field):
        """A spec differing in any priced field gets its own bucket."""
        perturb = _PRICED_FIELD_PERTURBATIONS[field]
        mutated = dataclasses.replace(
            gpu, **{field: perturb(getattr(gpu, field))}
        )
        assert machine_token(gpu, DEFAULT_TUNING) != machine_token(
            mutated, DEFAULT_TUNING
        )
        original = CostEstimator(gpu, use_cache=True)
        original.estimate(op)  # populate the original's bucket
        changed = CostEstimator(mutated, use_cache=True)
        # Whatever the mutated machine returns, it must be what the
        # uncached formulas produce on the mutated machine — not a
        # value served from the original's bucket.
        assert changed.estimate(op) == changed.compute_estimate(op)

    @given(op=ops, gpu=machines)
    @settings(max_examples=40, deadline=None)
    def test_explicit_invalidation_forces_recompute(self, op, gpu):
        cache = KernelCostCache()
        token = machine_token(gpu, DEFAULT_TUNING)
        cost = CostEstimator(gpu, use_cache=False).compute_estimate(op)
        cache.bucket(token)[op] = cost
        dropped = cache.invalidate_spec(gpu)
        assert dropped >= 1
        assert cache.stats().entries == 0
        assert op not in cache.bucket(token)


def test_registry_replacement_invalidates_costs():
    """register_machine(replace=True) with a changed GPU drops the old
    machine's cached costs (the wiring the cache docstring promises)."""
    from repro.distributed.registry import (
        machine_from_name,
        register_machine,
    )

    original = machine_from_name("dgx-a100-80g")
    estimator = CostEstimator(original.gpu, use_cache=True)
    op = Gemm("g", m=33, n=77, k=55)
    estimator.estimate(op)
    assert GLOBAL_COST_CACHE.bucket(estimator.cache_token)
    faster_gpu = dataclasses.replace(
        original.gpu, dram_bandwidth=original.gpu.dram_bandwidth * 2
    )
    try:
        register_machine(
            dataclasses.replace(original, gpu=faster_gpu), replace=True
        )
        assert not GLOBAL_COST_CACHE.bucket(estimator.cache_token)
    finally:
        register_machine(original, replace=True)


@pytest.mark.parametrize("gpu", PRESETS.values(), ids=PRESETS)
@given(op=ops)
@settings(max_examples=100, deadline=None)
def test_priced_kernels_stay_under_the_roof(gpu, op):
    """No kernel runs faster than its machine allows: its time covers
    its FLOPs at the fastest peak for its dtype and its bytes at the
    fastest residence level's bandwidth."""
    cost = CostEstimator(gpu).estimate(op)
    peak = max(gpu.peak_flops_for(op.dtype), gpu.vector_flops)
    bandwidth = max(
        gpu.l1_per_sm.bandwidth_bytes_per_s,
        gpu.l2.bandwidth_bytes_per_s,
        gpu.dram_bandwidth,
    )
    assert cost.time_s >= cost.flops / peak
    assert cost.time_s >= cost.moved_bytes / bandwidth
