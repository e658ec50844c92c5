"""Section V analytical-formula tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.attention_memory import (
    cross_attention_matrix_shape,
    cumulative_unet_similarity_bytes,
    self_attention_matrix_shape,
    self_attention_seq_len,
    similarity_matrix_bytes,
    stage_sequence_lengths,
)


class TestSeqLen:
    def test_latent_area(self):
        assert self_attention_seq_len(64, 64) == 4096

    def test_self_matrix_square(self):
        assert self_attention_matrix_shape(8, 8) == (64, 64)

    def test_cross_matrix_uses_text_length(self):
        assert cross_attention_matrix_shape(8, 8, 77) == (64, 77)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            self_attention_seq_len(0, 8)


class TestSimilarityBytes:
    def test_paper_formula(self):
        # 2 * HW * (HW + text)
        assert similarity_matrix_bytes(8, 8, 77) == 2 * 64 * (64 + 77)

    def test_sd_512px_case(self):
        # 64x64 latent, 77 text tokens: dominated by the 4096^2 term.
        memory = similarity_matrix_bytes(64, 64, 77)
        assert memory == 2 * 4096 * (4096 + 77)
        assert memory > 32e6

    def test_no_text_term(self):
        assert similarity_matrix_bytes(8, 8, 0) == 2 * 64 * 64


class TestCumulativeUNet:
    def test_single_stage_matches_closed_form(self):
        # depth 0: only the bottleneck term.
        total = cumulative_unet_similarity_bytes(
            8, 8, 77, downsample_factor=4, unet_depth=0
        )
        assert total == similarity_matrix_bytes(8, 8, 77)

    def test_depth_sums_shrinking_stages(self):
        total = cumulative_unet_similarity_bytes(
            8, 8, 0, downsample_factor=4, unet_depth=1
        )
        # 2 * [2*64*64] + [2*16*16]
        assert total == 2 * (2 * 64 * 64) + 2 * 16 * 16

    def test_monotonic_in_latent_size(self):
        small = cumulative_unet_similarity_bytes(32, 32, 77)
        large = cumulative_unet_similarity_bytes(64, 64, 77)
        assert large > 10 * small

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            cumulative_unet_similarity_bytes(8, 8, 77, unet_depth=-1)


class TestStageSequenceLengths:
    def test_sd_stages(self):
        # Area shrinks 4x per stride-2 stage.
        assert stage_sequence_lengths(64, 64, 4, 3) == [
            4096, 1024, 256, 64,
        ]

    def test_never_below_one(self):
        lengths = stage_sequence_lengths(2, 2, 4, 5)
        assert min(lengths) == 1


@given(
    side=st.integers(2, 256),
    text=st.integers(0, 512),
)
def test_memory_positive_and_dominated_by_quartic_term(side, text):
    memory = similarity_matrix_bytes(side, side, text)
    assert memory >= 2 * side**4


@given(side=st.integers(2, 128))
def test_doubling_latent_side_is_16x_memory(side):
    small = similarity_matrix_bytes(side, side, 0)
    large = similarity_matrix_bytes(2 * side, 2 * side, 0)
    assert large == 16 * small
