"""Transformer stack and UNet layer tests."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.ops import OpCategory
from repro.ir.tensor import tensor
from repro.layers.transformer import TransformerConfig, TransformerStack
from repro.layers.unet import UNet, UNetConfig
from repro.profiler.seqlen import sequence_length_profile


class TestTransformerConfig:
    def test_valid(self):
        TransformerConfig(dim=64, num_layers=2, num_heads=4)

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            TransformerConfig(dim=65, num_layers=2, num_heads=4)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            TransformerConfig(dim=64, num_layers=0, num_heads=4)


class TestTransformerStack:
    def _config(self, **kwargs):
        return TransformerConfig(
            dim=64, num_layers=3, num_heads=4, **kwargs
        )

    def test_attention_calls_match_layers(self):
        ctx = ExecutionContext()
        TransformerStack(self._config())(ctx, tensor(1, 16, 64))
        assert len(ctx.trace.attention_anchors()) == 3

    def test_cross_attention_doubles_calls(self):
        ctx = ExecutionContext()
        stack = TransformerStack(self._config(cross_dim=32))
        stack(ctx, tensor(1, 16, 64), context=tensor(1, 8, 32))
        assert len(ctx.trace.attention_anchors()) == 6

    def test_no_context_skips_cross(self):
        ctx = ExecutionContext()
        stack = TransformerStack(self._config(cross_dim=32))
        stack(ctx, tensor(1, 16, 64))
        assert len(ctx.trace.attention_anchors()) == 3

    def test_param_count_scales_with_layers(self):
        shallow = TransformerStack(
            TransformerConfig(dim=64, num_layers=2, num_heads=4)
        )
        deep = TransformerStack(
            TransformerConfig(dim=64, num_layers=4, num_heads=4)
        )
        assert deep.param_count() > 1.9 * shallow.param_count()

    def test_kv_cache_flows_to_self_attention(self):
        ctx = ExecutionContext()
        stack = TransformerStack(self._config(causal=True))
        stack(ctx, tensor(1, 1, 64), past_length=50)
        info = ctx.trace.attention_anchors()[0].op.attention
        assert info.seq_kv == 51

    def test_gated_ffn_emits_glu(self):
        ctx = ExecutionContext()
        TransformerStack(self._config(gated_ffn=True))(
            ctx, tensor(1, 16, 64)
        )
        assert any(event.op.name == "glu" for event in ctx.trace)


SMALL_UNET = UNetConfig(
    in_channels=4,
    model_channels=32,
    channel_mult=(1, 2),
    num_res_blocks=1,
    attention_levels=(1,),
    attention_style="transformer",
    head_dim=16,
    text_dim=64,
    text_seq=8,
)


class TestUNet:
    def test_runs_and_returns_input_shape(self):
        ctx = ExecutionContext()
        out = UNet(SMALL_UNET)(ctx, tensor(1, 4, 16, 16))
        assert out.shape == (1, 4, 16, 16)

    def test_attention_only_at_configured_levels(self):
        ctx = ExecutionContext()
        UNet(SMALL_UNET)(ctx, tensor(1, 4, 16, 16))
        seqs = {
            sample.seq_q
            for sample in sequence_length_profile(ctx.trace)
        }
        # Level 1 on a 16x16 latent is an 8x8 grid -> seq 64 only.
        assert seqs == {64}

    def test_u_shaped_sequence_profile_with_all_levels(self):
        config = UNetConfig(
            in_channels=4,
            model_channels=32,
            channel_mult=(1, 2, 4),
            num_res_blocks=1,
            attention_levels=(0, 1, 2),
            attention_style="transformer",
            head_dim=16,
            text_dim=64,
            text_seq=8,
        )
        ctx = ExecutionContext()
        UNet(config)(ctx, tensor(1, 4, 16, 16))
        seqs = [s.seq_q for s in sequence_length_profile(ctx.trace)]
        assert max(seqs) == 256 and min(seqs) == 16
        low_point = seqs.index(min(seqs))
        assert 0 < low_point < len(seqs) - 1

    def test_no_attention_style(self):
        config = UNetConfig(
            in_channels=3,
            model_channels=32,
            channel_mult=(1, 2),
            num_res_blocks=1,
            attention_levels=(),
            attention_style="none",
        )
        ctx = ExecutionContext()
        UNet(config)(ctx, tensor(1, 3, 16, 16))
        assert ctx.trace.attention_anchors() == []
        assert len(ctx.trace.filter(
            lambda event: event.category is OpCategory.CONV
        )) > 4

    def test_invalid_attention_level_rejected(self):
        with pytest.raises(ValueError):
            UNetConfig(channel_mult=(1, 2), attention_levels=(5,))

    def test_invalid_style_rejected(self):
        with pytest.raises(ValueError):
            UNetConfig(attention_style="magic")

    def test_temporal_unet_has_temporal_attention(self):
        config = UNetConfig(
            in_channels=3,
            model_channels=32,
            channel_mult=(1, 2),
            num_res_blocks=1,
            attention_levels=(1,),
            attention_style="block",
            head_dim=16,
            text_dim=64,
            text_seq=8,
            temporal=True,
            temporal_attention_levels=(0, 1),
        )
        ctx = ExecutionContext()
        UNet(config)(ctx, tensor(4, 3, 16, 16), frames=4)
        from repro.ir.ops import AttentionKind

        kinds = {
            anchor.op.attention.kind
            for anchor in ctx.trace.attention_anchors()
        }
        assert AttentionKind.TEMPORAL in kinds
        assert AttentionKind.SPATIAL in kinds

    def test_temporal_seq_is_frames(self):
        config = UNetConfig(
            in_channels=3,
            model_channels=32,
            channel_mult=(1,),
            num_res_blocks=1,
            attention_levels=(),
            attention_style="none",
            temporal=True,
            temporal_attention_levels=(0,),
        )
        ctx = ExecutionContext()
        UNet(config)(ctx, tensor(4, 3, 8, 8), frames=4)
        from repro.ir.ops import AttentionKind

        anchors = ctx.trace.attention_anchors()
        assert anchors
        assert all(
            anchor.op.attention.kind is AttentionKind.TEMPORAL
            and anchor.op.attention.seq_q == 4
            for anchor in anchors
        )

    def test_param_count_grows_with_width(self):
        import dataclasses

        wide = dataclasses.replace(SMALL_UNET, model_channels=64)
        assert UNet(wide).param_count() > 3 * UNet(SMALL_UNET).param_count()

    def test_denoising_steps_are_identical(self):
        ctx = ExecutionContext()
        unet = UNet(SMALL_UNET)
        unet(ctx, tensor(1, 4, 16, 16))
        first = ctx.trace.total_time_s
        ctx2 = ExecutionContext()
        unet(ctx2, tensor(1, 4, 16, 16))
        assert ctx2.trace.total_time_s == pytest.approx(first)

    def test_latent_rank_validation(self):
        ctx = ExecutionContext()
        with pytest.raises(ValueError):
            UNet(SMALL_UNET)(ctx, tensor(4, 16, 16))
