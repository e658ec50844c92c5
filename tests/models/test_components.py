"""Pipeline component tests: text encoders, pixel decoders, embeddings."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.ops import OpCategory
from repro.ir.tensor import TensorSpec, tensor
from repro.layers.embedding import TimestepEmbedding, TokenEmbedding
from repro.models.decoders import ConvDecoder
from repro.models.text_encoders import (
    CLIP_TEXT,
    T5_XL,
    T5_XXL,
    TextEncoder,
)


class TestTextEncoders:
    def test_output_shape(self):
        ctx = ExecutionContext()
        encoder = TextEncoder(CLIP_TEXT)
        out = encoder(ctx, batch=2)
        assert out.shape == (2, 77, 768)

    def test_custom_seq_within_max(self):
        ctx = ExecutionContext()
        out = TextEncoder(T5_XL)(ctx, batch=1, seq=64)
        assert out.shape == (1, 64, 2048)

    def test_seq_beyond_max_rejected(self):
        ctx = ExecutionContext()
        with pytest.raises(ValueError, match="exceeds max"):
            TextEncoder(CLIP_TEXT)(ctx, batch=1, seq=512)

    def test_presets_scale(self):
        # Doubling width roughly quadruples the transformer body.
        assert TextEncoder(T5_XXL).param_count() > (
            3.5 * TextEncoder(T5_XL).param_count()
        )

    def test_clip_parameter_count_plausible(self):
        # Real CLIP ViT-L/14 text tower is ~123M; ours should be close.
        params = TextEncoder(CLIP_TEXT).param_count()
        assert 0.8e8 < params < 2.5e8

    def test_encoder_emits_attention_and_linear(self):
        ctx = ExecutionContext()
        TextEncoder(CLIP_TEXT)(ctx, batch=1)
        categories = set(ctx.trace.time_by_category())
        assert OpCategory.ATTENTION in categories
        assert OpCategory.LINEAR in categories
        assert OpCategory.EMBEDDING in categories


class TestConvDecoder:
    def test_upsample_factor(self):
        decoder = ConvDecoder(4, channel_schedule=(64, 32, 16))
        assert decoder.upsample_factor == 4

    def test_output_is_image(self):
        ctx = ExecutionContext()
        decoder = ConvDecoder(4, channel_schedule=(64, 32, 16))
        out = decoder(ctx, TensorSpec((1, 4, 8, 8)))
        assert out.shape == (1, 3, 32, 32)

    def test_sd_vae_shape(self):
        ctx = ExecutionContext()
        decoder = ConvDecoder(
            4, channel_schedule=(512, 512, 256, 128)
        )
        out = decoder(ctx, TensorSpec((1, 4, 64, 64)))
        assert out.shape == (1, 3, 512, 512)

    def test_conv_dominated(self):
        ctx = ExecutionContext()
        ConvDecoder(4, channel_schedule=(128, 64, 32))(
            ctx, TensorSpec((1, 4, 32, 32))
        )
        times = ctx.trace.time_by_category()
        assert times[OpCategory.CONV] == max(times.values())

    def test_channel_validation(self):
        ctx = ExecutionContext()
        decoder = ConvDecoder(4, channel_schedule=(32,))
        with pytest.raises(ValueError):
            decoder(ctx, TensorSpec((1, 8, 8, 8)))

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ConvDecoder(4, channel_schedule=())


class TestEmbeddings:
    def test_token_embedding_shape_and_params(self):
        ctx = ExecutionContext()
        embedding = TokenEmbedding(vocab=1000, dim=64)
        out = embedding(ctx, batch=2, seq=16)
        assert out.shape == (2, 16, 64)
        assert embedding.param_count() == 64000

    def test_token_embedding_emits_gather(self):
        ctx = ExecutionContext()
        TokenEmbedding(vocab=1000, dim=64)(ctx, batch=1, seq=8)
        assert ctx.trace.events[0].category is OpCategory.EMBEDDING

    def test_timestep_embedding_widens_4x(self):
        ctx = ExecutionContext()
        out = TimestepEmbedding(64)(ctx, batch=2)
        assert out.shape == (2, 256)

    def test_timestep_embedding_two_linears(self):
        ctx = ExecutionContext()
        TimestepEmbedding(64)(ctx, batch=1)
        assert len(ctx.trace.filter(
            lambda event: event.category is OpCategory.LINEAR
        )) == 2


class TestSuiteCache:
    def test_cache_returns_same_objects(self):
        from repro.experiments.suite_cache import suite_profiles

        first = suite_profiles("muse")
        second = suite_profiles("muse")
        assert first is second

    def test_clear_cache_rebuilds(self):
        from repro.experiments import suite_cache

        before = suite_cache.model_instance("muse")
        suite_cache.clear_cache()
        after = suite_cache.model_instance("muse")
        assert before is not after
        # Leave a warm cache for later tests in the session.
        suite_cache.clear_cache()
