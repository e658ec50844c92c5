"""Cache-behaviour simulation tests (the Figure 12 mechanism)."""

import pytest

from repro.hw.spec import A100_80GB
from repro.ir.ops import AttentionInfo, AttentionKind, AttentionRole
from repro.kernels.attention import (
    attention_matmul_flops,
    similarity_matrix_bytes,
    simulate_attention_cache,
)


def spatial_info(seq=4096, heads=8, batch=16) -> AttentionInfo:
    return AttentionInfo(
        role=AttentionRole.SELF,
        kind=AttentionKind.SPATIAL,
        seq_q=seq,
        seq_kv=seq,
        head_dim=64,
        num_heads=heads,
        batch=batch,
    )


def temporal_info(frames=16, pixels=4096, heads=8) -> AttentionInfo:
    return AttentionInfo(
        role=AttentionRole.SELF,
        kind=AttentionKind.TEMPORAL,
        seq_q=frames,
        seq_kv=frames,
        head_dim=64,
        num_heads=heads,
        batch=pixels,
        element_stride_bytes=pixels * heads * 64 * 2,
    )


class TestHelpers:
    def test_matmul_flops_formula(self):
        assert attention_matmul_flops(2, 4, 8, 16, 32) == (
            4.0 * 2 * 4 * 8 * 16 * 32
        )

    def test_similarity_bytes(self):
        assert similarity_matrix_bytes(2, 4, 8, 16) == 2 * 4 * 8 * 16 * 2


class TestFigure12Mechanism:
    @pytest.fixture(scope="class")
    def reports(self):
        return (
            simulate_attention_cache(spatial_info()),
            simulate_attention_cache(temporal_info()),
        )

    def test_spatial_gemm_l1_hits_from_tile_reuse(self, reports):
        spatial, _ = reports
        assert spatial.gemm.l1.hit_rate > 0.4

    def test_temporal_gemm_l1_near_zero(self, reports):
        _, temporal = reports
        assert temporal.gemm.l1.hit_rate < 0.1

    def test_gemm_l1_gap_at_least_8x(self, reports):
        spatial, temporal = reports
        assert spatial.gemm.l1.hit_rate >= 8 * max(
            temporal.gemm.l1.hit_rate, 0.02
        ) or temporal.gemm.l1.hit_rate < 0.05

    def test_softmax_two_pass_vs_register_resident(self, reports):
        spatial, temporal = reports
        assert spatial.softmax.l1.hit_rate > 0.3
        assert temporal.softmax.l1.hit_rate < 0.1

    def test_temporal_l2_softmax_same_or_higher(self, reports):
        spatial, temporal = reports
        assert (
            temporal.softmax.l2.hit_rate
            >= spatial.softmax.l2.hit_rate - 0.01
        )

    def test_temporal_l2_elementwise_same_or_higher(self, reports):
        spatial, temporal = reports
        assert (
            temporal.elementwise.l2.hit_rate
            >= spatial.elementwise.l2.hit_rate - 0.01
        )

    def test_gemm_l2_gap(self, reports):
        spatial, temporal = reports
        assert spatial.gemm.l2.hit_rate > temporal.gemm.l2.hit_rate

    def test_determinism(self):
        first = simulate_attention_cache(spatial_info())
        second = simulate_attention_cache(spatial_info())
        assert first.as_dict() == second.as_dict()

    def test_rates_are_probabilities(self, reports):
        for report in reports:
            for kernel_rates in report.as_dict().values():
                for rate in kernel_rates.values():
                    assert 0.0 <= rate <= 1.0

    def test_as_dict_structure(self, reports):
        spatial, _ = reports
        data = spatial.as_dict()
        assert set(data) == {"gemm", "softmax", "elementwise"}
        assert set(data["gemm"]) == {"l1", "l2"}


class TestSensitivity:
    def test_longer_spatial_seq_keeps_reuse(self):
        short = simulate_attention_cache(spatial_info(seq=1024))
        long = simulate_attention_cache(spatial_info(seq=4096))
        assert long.gemm.l1.hit_rate > 0.3
        assert short.gemm.l1.hit_rate > 0.2

    def test_more_frames_do_not_create_l1_reuse(self):
        few = simulate_attention_cache(temporal_info(frames=8))
        many = simulate_attention_cache(temporal_info(frames=64))
        assert few.gemm.l1.hit_rate < 0.1
        assert many.gemm.l1.hit_rate < 0.1

    def test_short_spatial_rows_lose_softmax_reuse(self):
        # Rows below the register threshold are single-pass.
        tiny = simulate_attention_cache(spatial_info(seq=256))
        assert tiny.softmax.l1.hit_rate < 0.1

    def test_different_gpu_geometry(self):
        from repro.hw.spec import V100_32GB

        report = simulate_attention_cache(spatial_info(), V100_32GB)
        assert 0.0 <= report.gemm.l1.hit_rate <= 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "field", ["num_sms", "max_groups", "max_rows", "max_lines"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive_caps(self, field, value):
        with pytest.raises(ValueError, match=field):
            simulate_attention_cache(temporal_info(), **{field: value})


# fig12's spatial and temporal configs replayed on H100-80GB with 7
# simulated SMs (fig12 itself renders the A100, 4-SM geometry, pinned
# by tests/golden/fig12.json).  One hit more or fewer in any stream
# moves a rate past the tolerance.
H100_7SM_RATES = {
    "spatial": {
        "elementwise": {"l1": 0.1033935546875, "l2": 0.007639361621662507},
        "gemm": {"l1": 0.7272727272727273, "l2": 0.7777777777777778},
        "softmax": {"l1": 0.5, "l2": 0.0},
    },
    "temporal": {
        "elementwise": {"l1": 0.10503472222222222, "l2": 0.9990300678952473},
        "gemm": {"l1": 0.0, "l2": 0.0},
        "softmax": {"l1": 0.0, "l2": 1.0},
    },
}


def test_fig12_configs_on_h100_with_seven_sms_are_pinned():
    from repro.experiments.fig12_cache import attention_configs
    from repro.hw.spec import H100_80GB

    spatial, temporal = attention_configs()
    for label, info in (("spatial", spatial), ("temporal", temporal)):
        rates = simulate_attention_cache(info, H100_80GB, num_sms=7)
        for kernel, levels in rates.as_dict().items():
            for level, rate in levels.items():
                assert rate == pytest.approx(
                    H100_7SM_RATES[label][kernel][level],
                    rel=1e-9, abs=1e-12,
                ), (label, kernel, level)
        assert set(rates.as_dict()) == set(H100_7SM_RATES[label])
