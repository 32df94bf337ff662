"""Tests for quantization, entropy coding, and the full frame codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    CodecTiming,
    FOUR_K_PIXELS,
    FrameCodec,
    decode_levels,
    dequantize,
    encode_levels,
    quant_matrix,
    quant_scale,
    quantize,
    zigzag_order,
)
from repro.similarity import ssim


def textured_frame(seed, shape=(64, 128)):
    """A frame with mixed smooth + detailed content (codec-realistic).

    Detail features span ~4 px, like the renderer's mip-mapped textures;
    per-pixel white noise would be adversarial for any transform codec.
    """
    rng = np.random.default_rng(seed)
    y = np.linspace(0, 1, shape[0])[:, None]
    base = 0.3 + 0.4 * y
    coarse = rng.random(((shape[0] + 3) // 4, (shape[1] + 3) // 4))
    detail = np.kron(coarse, np.ones((4, 4)))[: shape[0], : shape[1]] * 0.25
    return np.clip(base + detail, 0, 1).astype(np.float32)


class TestQuant:
    def test_crf25_unit_scale(self):
        assert quant_scale(25.0) == pytest.approx(1.0)

    def test_doubles_every_six(self):
        assert quant_scale(31.0) == pytest.approx(2.0 * quant_scale(25.0))
        assert quant_scale(19.0) == pytest.approx(0.5 * quant_scale(25.0))

    def test_crf_range_enforced(self):
        with pytest.raises(ValueError):
            quant_scale(-1)
        with pytest.raises(ValueError):
            quant_scale(52)

    def test_matrix_floor_at_one(self):
        assert np.all(quant_matrix(0.0) >= 1.0)

    def test_quantize_dequantize_bounded_error(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=(2, 3, 8, 8)) * 200
        q = quant_matrix(25.0)
        recovered = dequantize(quantize(coeffs), 25.0)
        assert np.all(np.abs(recovered - coeffs) <= q / 2 + 1e-9)

    def test_higher_crf_coarser(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(2, 2, 8, 8)) * 100
        fine = quantize(coeffs, crf=18.0)
        coarse = quantize(coeffs, crf=40.0)
        assert np.count_nonzero(coarse) < np.count_nonzero(fine)


class TestEntropy:
    def test_zigzag_is_permutation(self):
        order = zigzag_order()
        assert sorted(order.tolist()) == list(range(64))

    def test_zigzag_starts_dc_ends_hf(self):
        order = zigzag_order()
        assert order[0] == 0
        assert order[-1] == 63

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        levels = rng.integers(-50, 50, size=(3, 5, 8, 8)).astype(np.int32)
        data = encode_levels(levels)
        assert np.array_equal(decode_levels(data, 3, 5), levels)

    def test_sparse_blocks_compress_better(self):
        dense = np.random.default_rng(3).integers(-100, 100, (4, 4, 8, 8)).astype(np.int32)
        sparse = dense.copy()
        sparse[:, :, 2:, :] = 0
        sparse[:, :, :, 2:] = 0
        assert len(encode_levels(sparse)) < len(encode_levels(dense))

    def test_corrupt_stream_rejected(self):
        levels = np.zeros((2, 2, 8, 8), dtype=np.int32)
        data = encode_levels(levels)
        with pytest.raises(ValueError):
            decode_levels(data, 3, 3)  # wrong block-grid dimensions

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_levels(np.zeros((8, 8), dtype=np.int32))
        with pytest.raises(ValueError):
            decode_levels(b"", 0, 1)


class TestFrameCodec:
    def test_iframe_roundtrip_quality(self):
        codec = FrameCodec(crf=25)
        frame = textured_frame(0)
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == frame.shape
        assert decoded.dtype == np.float32
        assert ssim(frame, decoded) > 0.8

    def test_lower_crf_better_quality_bigger_frames(self):
        frame = textured_frame(1)
        hi_q = FrameCodec(crf=15)
        lo_q = FrameCodec(crf=40)
        enc_hi, enc_lo = hi_q.encode(frame), lo_q.encode(frame)
        assert enc_hi.luma_bytes > enc_lo.luma_bytes
        assert ssim(frame, hi_q.decode(enc_hi)) > ssim(frame, lo_q.decode(enc_lo))

    def test_smooth_frame_smaller_than_detailed(self):
        codec = FrameCodec()
        smooth = np.full((64, 128), 0.5, dtype=np.float32)
        detailed = textured_frame(2)
        assert codec.encode(smooth).luma_bytes < codec.encode(detailed).luma_bytes / 4

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            FrameCodec().encode(np.zeros((4, 4, 3)))

    def test_invalid_crf(self):
        with pytest.raises(ValueError):
            FrameCodec(crf=99)

    def test_unaligned_dimensions_roundtrip(self):
        codec = FrameCodec()
        frame = textured_frame(5, shape=(30, 50))
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == (30, 50)

    def test_wire_bytes_scaling(self):
        codec = FrameCodec()
        enc = codec.encode(textured_frame(6))
        assert enc.wire_bytes() > enc.luma_bytes  # 4K scaling dominates
        assert enc.wire_bytes(enc.width * enc.height) < enc.luma_bytes
        with pytest.raises(ValueError):
            enc.wire_bytes(0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_roundtrip_never_explodes(self, seed):
        codec = FrameCodec()
        frame = textured_frame(seed)
        decoded = codec.decode(codec.encode(frame))
        assert np.all((decoded >= 0) & (decoded <= 1))
        assert np.abs(decoded - frame).mean() < 0.1


class TestCodecTiming:
    def test_4k_latencies_in_envelope(self):
        timing = CodecTiming()
        # Decode must fit inside the 16.7 ms frame budget on the phone.
        assert timing.decode_ms(FOUR_K_PIXELS) < 16.7
        assert timing.encode_ms(FOUR_K_PIXELS) < 16.7

    def test_scales_with_pixels(self):
        timing = CodecTiming()
        assert timing.decode_ms(2 * 10**6) == pytest.approx(
            2 * timing.decode_ms(10**6)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CodecTiming(encode_ms_per_mpixel=0)
        with pytest.raises(ValueError):
            CodecTiming().decode_ms(0)
