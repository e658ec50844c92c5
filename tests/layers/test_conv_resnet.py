"""Conv, resample and resnet block layer tests."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.ops import Conv3d, OpCategory
from repro.ir.tensor import tensor
from repro.layers.conv import (
    Conv2dLayer,
    Conv3dLayer,
    Downsample,
    TemporalConv,
    Upsample,
)
from repro.layers.resnet import ResnetBlock2D, ResnetBlock3D


class TestConvLayers:
    def test_conv2d_output_shape(self):
        ctx = ExecutionContext()
        out = Conv2dLayer(4, 8)(ctx, tensor(1, 4, 16, 16))
        assert out.shape == (1, 8, 16, 16)

    def test_conv2d_channel_validation(self):
        ctx = ExecutionContext()
        with pytest.raises(ValueError):
            Conv2dLayer(4, 8)(ctx, tensor(1, 8, 16, 16))

    def test_downsample_halves_resolution(self):
        ctx = ExecutionContext()
        out = Downsample(8)(ctx, tensor(1, 8, 16, 16))
        assert out.shape == (1, 8, 8, 8)

    def test_upsample_doubles_resolution(self):
        ctx = ExecutionContext()
        out = Upsample(8)(ctx, tensor(1, 8, 16, 16))
        assert out.shape == (1, 8, 32, 32)

    def test_upsample_emits_resample_then_conv(self):
        ctx = ExecutionContext()
        Upsample(8)(ctx, tensor(1, 8, 16, 16))
        categories = [event.category for event in ctx.trace]
        assert categories == [OpCategory.MEMORY, OpCategory.CONV]

    def test_conv3d_shape(self):
        ctx = ExecutionContext()
        out = Conv3dLayer(4, 8)(ctx, tensor(1, 4, 6, 16, 16))
        assert out.shape == (1, 8, 6, 16, 16)

    def test_temporal_conv_is_1d_over_frames(self):
        ctx = ExecutionContext()
        TemporalConv(8)(ctx, tensor(1, 8, 6, 16, 16))
        op = ctx.trace.events[0].op
        assert isinstance(op, Conv3d)
        assert (op.kt, op.kh, op.kw) == (3, 1, 1)

    def test_conv_param_count(self):
        assert Conv2dLayer(4, 8, kernel=3).own_param_count() == (
            4 * 8 * 9 + 8
        )


class TestResnetBlock2D:
    def test_channel_change_adds_skip_conv(self):
        with_skip = ResnetBlock2D(4, 8)
        without = ResnetBlock2D(8, 8)
        assert with_skip.skip is not None
        assert without.skip is None

    def test_emits_two_main_convs(self):
        ctx = ExecutionContext()
        ResnetBlock2D(8, 8)(ctx, tensor(1, 8, 16, 16))
        convs = ctx.trace.filter(
            lambda event: event.category is OpCategory.CONV
        )
        assert len(convs) == 2

    def test_two_groupnorms(self):
        ctx = ExecutionContext()
        ResnetBlock2D(8, 8)(ctx, tensor(1, 8, 16, 16))
        assert len(ctx.trace.filter(
            lambda event: event.category is OpCategory.GROUPNORM
        )) == 2

    def test_time_embedding_projection(self):
        ctx = ExecutionContext()
        block = ResnetBlock2D(8, 8, time_embed_dim=32)
        block(ctx, tensor(1, 8, 16, 16), tensor(1, 32))
        assert len(ctx.trace.filter(
            lambda event: event.category is OpCategory.LINEAR
        )) == 1

    def test_output_shape_changes_channels(self):
        ctx = ExecutionContext()
        out = ResnetBlock2D(4, 16)(ctx, tensor(1, 4, 8, 8))
        assert out.shape == (1, 16, 8, 8)


class TestResnetBlock3D:
    def test_spatial_plus_temporal_factorization(self):
        ctx = ExecutionContext()
        ResnetBlock3D(8, 8)(ctx, tensor(1, 8, 4, 16, 16))
        convs = [
            event.op for event in ctx.trace
            if event.category is OpCategory.CONV
        ]
        temporal = [op for op in convs if isinstance(op, Conv3d)]
        assert len(temporal) == 1  # exactly one temporal conv
        assert len(convs) == 3  # two spatial + one temporal

    def test_frames_folded_into_spatial_batch(self):
        ctx = ExecutionContext()
        ResnetBlock3D(8, 8)(ctx, tensor(2, 8, 4, 16, 16))
        first_conv = ctx.trace.filter(
            lambda event: event.category is OpCategory.CONV
        ).events[0].op
        assert first_conv.batch == 8  # 2 videos x 4 frames

    def test_rank_validation(self):
        ctx = ExecutionContext()
        with pytest.raises(ValueError):
            ResnetBlock3D(8, 8)(ctx, tensor(1, 8, 16, 16))

    def test_output_is_video_shaped(self):
        ctx = ExecutionContext()
        out = ResnetBlock3D(8, 16)(ctx, tensor(1, 8, 4, 16, 16))
        assert out.shape == (1, 16, 4, 16, 16)
