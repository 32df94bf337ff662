"""Tests for block decomposition and the 8x8 DCT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    dct_matrix,
    forward_dct,
    inverse_dct,
    join_blocks,
    pad_to_blocks,
    split_blocks,
)


class TestBlocks:
    def test_pad_aligned_frame_unchanged(self):
        f = np.zeros((16, 24))
        assert pad_to_blocks(f) is f

    def test_pad_extends_to_multiple(self):
        f = np.ones((10, 13))
        padded = pad_to_blocks(f)
        assert padded.shape == (16, 16)
        assert np.all(padded == 1.0)  # edge padding of a constant frame

    def test_pad_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pad_to_blocks(np.zeros((4, 4, 3)))

    def test_split_join_roundtrip(self):
        rng = np.random.default_rng(0)
        f = rng.random((32, 40))
        blocks = split_blocks(f)
        assert blocks.shape == (4, 5, 8, 8)
        assert np.array_equal(join_blocks(blocks, (32, 40)), f)

    def test_split_rejects_unaligned(self):
        with pytest.raises(ValueError):
            split_blocks(np.zeros((10, 16)))

    def test_join_crops(self):
        blocks = np.ones((2, 2, 8, 8))
        out = join_blocks(blocks, (10, 13))
        assert out.shape == (10, 13)

    def test_join_rejects_oversized_target(self):
        with pytest.raises(ValueError):
            join_blocks(np.ones((1, 1, 8, 8)), (16, 16))

    def test_block_content_layout(self):
        # Block (0,1) should hold columns 8..15 of rows 0..7.
        f = np.arange(16 * 16).reshape(16, 16).astype(float)
        blocks = split_blocks(f)
        assert np.array_equal(blocks[0, 1], f[0:8, 8:16])


class TestDct:
    def test_matrix_orthonormal(self):
        c = dct_matrix()
        assert np.allclose(c @ c.T, np.eye(8), atol=1e-12)

    def test_matrix_shared_and_read_only(self):
        c = dct_matrix()
        assert c is dct_matrix()
        with pytest.raises(ValueError):
            c[0, 0] = 1.0

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(1)
        blocks = rng.random((3, 4, 8, 8)) * 255
        assert np.allclose(inverse_dct(forward_dct(blocks)), blocks, atol=1e-9)

    def test_constant_block_single_dc(self):
        blocks = np.full((1, 1, 8, 8), 100.0)
        coeffs = forward_dct(blocks)
        assert coeffs[0, 0, 0, 0] == pytest.approx(800.0)  # 100 * 8
        rest = coeffs.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.allclose(rest, 0.0, atol=1e-9)

    def test_energy_preservation(self):
        # Orthonormal transform: Parseval's theorem holds.
        rng = np.random.default_rng(2)
        blocks = rng.random((2, 2, 8, 8))
        coeffs = forward_dct(blocks)
        assert np.sum(blocks**2) == pytest.approx(np.sum(coeffs**2))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            forward_dct(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            inverse_dct(np.zeros((2, 2, 4, 4)))

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_property(self, seed):
        blocks = np.random.default_rng(seed).normal(size=(1, 1, 8, 8)) * 128
        assert np.allclose(inverse_dct(forward_dct(blocks)), blocks, atol=1e-8)
