"""Per-model structural tests."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.ops import AttentionKind, OpCategory
from repro.models.llama import Llama, LlamaConfig
from repro.models.make_a_video import MakeAVideo
from repro.models.muse import Muse, MuseConfig
from repro.models.parti import Parti, PartiConfig
from repro.models.phenaki import Phenaki, PhenakiConfig
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)


class TestLlama:
    def test_prefill_decode_scopes(self, suite_profiles):
        baseline, _ = suite_profiles["llama"]
        scopes = {
            event.module_path.split(".")[0] for event in baseline.trace
        }
        assert {"prefill", "decode"} <= scopes

    def test_decode_buckets_scale_costs(self):
        config = LlamaConfig(
            prompt_tokens=128, decode_tokens=32, decode_bucket=8
        )
        model = Llama(config)
        ctx = ExecutionContext()
        model.decode(ctx)
        # 4 buckets x (layers x ops) events, each costed 8x.
        lm_heads = [
            event for event in ctx.trace if event.op.name == "lm_head"
        ]
        assert len(lm_heads) == 4
        single = Llama(
            LlamaConfig(prompt_tokens=128, decode_tokens=1,
                        decode_bucket=1)
        )
        ctx_one = ExecutionContext()
        single.decode(ctx_one)
        one_head = [
            event for event in ctx_one.trace
            if event.op.name == "lm_head"
        ][0]
        assert lm_heads[0].cost.flops == pytest.approx(
            8 * one_head.cost.flops
        )

    def test_decode_attention_is_decode_shaped(self, suite_profiles):
        baseline, _ = suite_profiles["llama"]
        decode_anchors = [
            anchor for anchor in baseline.trace.attention_anchors()
            if anchor.module_path.startswith("decode")
        ]
        assert decode_anchors
        assert all(
            anchor.op.attention.seq_q == 1 for anchor in decode_anchors
        )

    def test_prefill_is_causal_full_sequence(self, suite_profiles):
        baseline, _ = suite_profiles["llama"]
        prefill_anchor = next(
            anchor for anchor in baseline.trace.attention_anchors()
            if anchor.module_path.startswith("prefill")
        )
        assert prefill_anchor.op.attention.seq_q == 8192

    def test_param_count_near_7b(self):
        assert 6e9 < Llama().param_count() < 7.5e9


class TestStableDiffusion:
    def test_latent_size_512_is_64(self):
        assert StableDiffusionConfig().latent_size == 64

    def test_at_image_size_rejects_indivisible(self):
        with pytest.raises(ValueError):
            StableDiffusionConfig().at_image_size(100)

    def test_guidance_doubles_unet_batch(self):
        config = StableDiffusionConfig(denoising_steps=1)
        model = StableDiffusion(config)
        ctx = ExecutionContext()
        model.run_inference(ctx)
        anchor = next(
            anchor for anchor in ctx.trace.attention_anchors()
            if anchor.module_path.startswith("denoise")
        )
        assert anchor.op.attention.batch == 2

    def test_pipeline_components(self, suite_profiles):
        baseline, _ = suite_profiles["stable_diffusion"]
        scopes = {
            event.module_path.split(".")[0] for event in baseline.trace
        }
        assert "clip_text_encoder" in scopes
        assert "vae_decoder" in scopes

    def test_max_seqlen_is_latent_area(self, suite_profiles):
        from repro.profiler.seqlen import sequence_length_distribution

        baseline, _ = suite_profiles["stable_diffusion"]
        dist = sequence_length_distribution(baseline.trace)
        assert dist.max_length == 64 * 64


class TestImagen:
    def test_three_diffusion_stages(self, suite_profiles):
        baseline, _ = suite_profiles["imagen"]
        scopes = {
            event.module_path.split(".")[0] for event in baseline.trace
        }
        assert {"stage_64px", "stage_256px", "stage_1024px"} <= scopes

    def test_sr2_has_no_attention(self, suite_profiles):
        baseline, _ = suite_profiles["imagen"]
        sr2 = baseline.trace.filter(
            lambda event: event.module_path.startswith("stage_1024px")
        )
        assert sr2.attention_anchors() == []
        assert len(sr2.filter(
            lambda event: event.category is OpCategory.CONV
        )) > 10


class TestMuse:
    def test_constant_sequence_parallel_decode(self):
        config = MuseConfig(base_steps=3, sr_steps=1)
        ctx = ExecutionContext()
        Muse(config).run_inference(ctx)
        base_anchors = [
            anchor for anchor in ctx.trace.attention_anchors()
            if "base_transformer" in anchor.module_path
        ]
        assert {a.op.attention.seq_q for a in base_anchors} == {256}

    def test_refinement_steps_repeat_full_grid(self):
        few = MuseConfig(base_steps=2, sr_steps=0 or 1)
        many = MuseConfig(base_steps=4, sr_steps=1)
        t_few = ExecutionContext()
        Muse(few).run_inference(t_few)
        t_many = ExecutionContext()
        Muse(many).run_inference(t_many)
        assert t_many.trace.total_flops > t_few.trace.total_flops


class TestParti:
    def test_sequence_ramps_autoregressively(self, suite_profiles):
        baseline, _ = suite_profiles["parti"]
        decode_anchors = [
            anchor for anchor in baseline.trace.attention_anchors()
            if "decoder" in anchor.module_path.split(".")
            and anchor.op.attention.role.value == "self"
        ]
        seqs = [anchor.op.attention.seq_q for anchor in decode_anchors]
        assert seqs == sorted(seqs)
        assert seqs[-1] > 900  # approaches the 1024-token grid

    def test_kv_cache_mode_uses_single_queries(self):
        config = PartiConfig(use_kv_cache=True, decode_bucket=256)
        ctx = ExecutionContext()
        Parti(config).run_inference(ctx)
        decode_anchors = [
            anchor for anchor in ctx.trace.attention_anchors()
            if "autoregressive_decode" in anchor.module_path
            and anchor.op.attention.role.value == "self"
        ]
        assert all(
            anchor.op.attention.seq_q == 1 for anchor in decode_anchors
        )

    def test_kv_cache_mode_is_cheaper(self):
        recompute = PartiConfig(decode_bucket=128)
        cached = PartiConfig(use_kv_cache=True, decode_bucket=128)
        ctx_a, ctx_b = ExecutionContext(), ExecutionContext()
        Parti(recompute).run_inference(ctx_a)
        Parti(cached).run_inference(ctx_b)
        assert ctx_b.trace.total_flops < ctx_a.trace.total_flops / 5


class TestMakeAVideo:
    def test_both_attention_kinds_present(self, suite_profiles):
        baseline, _ = suite_profiles["make_a_video"]
        kinds = {
            anchor.op.attention.kind
            for anchor in baseline.trace.attention_anchors()
        }
        assert {AttentionKind.SPATIAL, AttentionKind.TEMPORAL} <= kinds

    def test_temporal_seq_matches_frame_counts(self, suite_profiles):
        baseline, _ = suite_profiles["make_a_video"]
        temporal_seqs = {
            anchor.op.attention.seq_q
            for anchor in baseline.trace.attention_anchors()
            if anchor.op.attention.kind is AttentionKind.TEMPORAL
        }
        assert temporal_seqs == {16, 76}

    def test_sr2_is_spatial_only(self, suite_profiles):
        baseline, _ = suite_profiles["make_a_video"]
        sr2 = baseline.trace.filter(
            lambda event: event.module_path.startswith("sr2")
        )
        assert sr2.attention_anchors() == []

    def test_default_config_is_mav_cascade(self):
        config = MakeAVideo().config
        assert config.key_frames == 16
        assert config.interpolated_frames == 76


class TestPhenaki:
    def test_video_token_count(self):
        config = PhenakiConfig()
        # 16x16 spatial x (1 + 5 temporal groups) = 1536.
        assert config.video_tokens == 1536

    def test_token_transformer_sequence(self, suite_profiles):
        baseline, _ = suite_profiles["phenaki"]
        anchors = [
            anchor for anchor in baseline.trace.attention_anchors()
            if "maskgit_transformer" in anchor.module_path
            and anchor.op.attention.role.value == "self"
        ]
        assert {a.op.attention.seq_q for a in anchors} == {1536}
