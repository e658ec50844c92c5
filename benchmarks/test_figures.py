"""One benchmark per figure of the paper's evaluation.

Run with ``pytest benchmarks/ --benchmark-only``; each benchmark prints
the regenerated figure as a table and asserts its claim checks.
"""

import gc

from repro.experiments import (
    fig01_fleet,
    fig04_pareto,
    fig05_roofline,
    fig06_op_breakdown,
    fig07_seqlen_profile,
    fig08_seqlen_distribution,
    fig09_image_scaling,
    fig10_layouts,
    fig11_temporal_cost,
    fig12_cache,
    fig13_frame_scaling,
)
from repro.experiments.suite_cache import clear_cache
from repro.profiler.profiler import clear_profile_cache
from repro.testing import assert_claims_hold, suite_profile_map

from conftest import run_and_render


def test_fig01_fleet(benchmark):
    run_and_render(benchmark, fig01_fleet.run)


def test_fig04_pareto(benchmark):
    run_and_render(benchmark, fig04_pareto.run)


def test_fig05_roofline(benchmark):
    run_and_render(benchmark, fig05_roofline.run)


def test_fig06_operator_breakdown(benchmark):
    """Figure 6 totals every suite trace by category.  Each round gets
    freshly profiled suite traces from an untimed setup, so it times
    those totals whatever entries ran before it.  The setup freezes the
    heap after the rebuild, as the session fixture does."""

    def fresh_suite():
        clear_cache()
        clear_profile_cache()
        suite_profile_map()
        gc.collect()
        gc.freeze()
        return (), {}

    result = benchmark.pedantic(
        fig06_op_breakdown.run, setup=fresh_suite, rounds=5, iterations=1
    )
    print()
    print(result.render())
    assert_claims_hold(result)


def test_fig07_sequence_length_profile(benchmark):
    run_and_render(benchmark, fig07_seqlen_profile.run)


def test_fig08_sequence_length_distribution(benchmark):
    run_and_render(benchmark, fig08_seqlen_distribution.run)


def test_fig09_image_size_scaling(benchmark):
    run_and_render(benchmark, fig09_image_scaling.run)


def test_fig10_attention_layouts(benchmark):
    run_and_render(benchmark, fig10_layouts.run)


def test_fig11_temporal_vs_spatial_cost(benchmark):
    run_and_render(benchmark, fig11_temporal_cost.run)


def test_fig12_cache_hit_rates(benchmark):
    run_and_render(benchmark, fig12_cache.run)


def test_fig13_frame_count_scaling(benchmark):
    run_and_render(benchmark, fig13_frame_scaling.run)
