"""Bit-identity tests for the stacked I-frame decode path."""

import numpy as np
import pytest

from repro import perf
from repro.codec import FrameCodec, quant_matrix
from repro.codec.blocks import (
    join_blocks,
    join_blocks_stack,
    split_blocks,
    split_blocks_stack,
)


def textured_frame(seed, shape=(32, 64)):
    rng = np.random.default_rng(seed)
    y = np.linspace(0, 1, shape[0])[:, None]
    coarse = rng.random(((shape[0] + 3) // 4, (shape[1] + 3) // 4))
    detail = np.kron(coarse, np.ones((4, 4)))[: shape[0], : shape[1]] * 0.25
    return np.clip(0.3 + 0.4 * y + detail, 0, 1).astype(np.float32)


class TestDecodeBatch:
    def test_matches_scalar_decode_exactly(self):
        codec = FrameCodec()
        encoded = [codec.encode(textured_frame(seed)) for seed in range(5)]
        batched = codec.decode_batch(encoded)
        for frame, decoded in zip(encoded, batched):
            np.testing.assert_array_equal(decoded, codec.decode(frame))
            assert decoded.dtype == np.float32

    def test_mixed_shapes_and_crfs_group_correctly(self):
        sharp, coarse = FrameCodec(crf=23), FrameCodec(crf=30)
        encoded = [
            sharp.encode(textured_frame(0, (32, 64))),
            sharp.encode(textured_frame(1, (16, 32))),
            coarse.encode(textured_frame(2, (32, 64))),
            sharp.encode(textured_frame(3, (32, 64))),
            sharp.encode(textured_frame(4, (16, 32))),
        ]
        perf.reset()
        batched = sharp.decode_batch(encoded)
        # results stay in submission order despite per-group stacking
        for frame, decoded in zip(encoded, batched):
            np.testing.assert_array_equal(decoded, sharp.decode(frame))
        assert perf.counter("decode.batched_frames") == 5
        assert perf.counter("decode.batches") == 3  # (64,23) (32,23) (64,30)

    def test_empty_batch(self):
        assert FrameCodec().decode_batch([]) == []

    def test_p_frames_rejected(self):
        codec = FrameCodec()
        base = textured_frame(0)
        reference = codec.decode(codec.encode(base))
        moved = np.roll(base, 2, axis=1)
        p_frame = codec.encode(moved, reference=reference)
        if p_frame.is_keyframe:
            pytest.skip("codec produced no P-frame for this content")
        with pytest.raises(ValueError):
            codec.decode_batch([p_frame])


class TestStackBlockHelpers:
    def test_split_stack_matches_per_frame(self):
        frames = np.stack(
            [textured_frame(s, (24, 40)).astype(np.float64) for s in range(3)]
        )
        stacked = split_blocks_stack(frames)
        for row in range(frames.shape[0]):
            np.testing.assert_array_equal(stacked[row], split_blocks(frames[row]))

    def test_join_stack_roundtrip_and_out(self):
        shape = (24, 40)
        frames = np.stack(
            [textured_frame(s, shape).astype(np.float64) for s in range(3)]
        )
        blocks = split_blocks_stack(frames)
        joined = join_blocks_stack(blocks, shape)
        np.testing.assert_array_equal(joined, frames)
        out = np.empty_like(joined)
        result = join_blocks_stack(blocks, shape, out=out)
        # the result is a cropped view into the supplied buffer
        assert result.base is out or result is out
        for row in range(frames.shape[0]):
            np.testing.assert_array_equal(out[row], join_blocks(blocks[row], shape))


class TestQuantMatrixCache:
    def test_cached_and_immutable(self):
        a = quant_matrix(23)
        assert a is quant_matrix(23)
        with pytest.raises(ValueError):
            a[0, 0] = 99.0
