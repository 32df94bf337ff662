"""Rate-distortion behaviour of the frame codec.

The network model's realism rests on the codec behaving like a video
coder: rate falls monotonically with CRF, distortion rises, and rate
tracks content energy.
"""

import numpy as np

from repro.codec import FrameCodec
from repro.similarity import ssim


def scene_like_frame(seed, shape=(64, 128)):
    """Sky gradient + blocky content, like the renderer's output."""
    rng = np.random.default_rng(seed)
    y = np.linspace(0.85, 0.35, shape[0])[:, None]
    frame = np.tile(y, (1, shape[1])).astype(np.float32)
    coarse = rng.random((shape[0] // 4, shape[1] // 4))
    detail = np.kron(coarse, np.ones((4, 4)))[: shape[0], : shape[1]]
    frame[shape[0] // 2 :] += (detail[shape[0] // 2 :] - 0.5) * 0.3
    return np.clip(frame, 0, 1).astype(np.float32)


class TestRateDistortion:
    def test_rate_monotone_in_crf(self):
        frame = scene_like_frame(1)
        sizes = [FrameCodec(crf=c).encode(frame).luma_bytes for c in (10, 20, 30, 40, 50)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] > 2 * sizes[-1]

    def test_quality_monotone_in_crf(self):
        frame = scene_like_frame(2)
        qualities = []
        for crf in (10, 25, 45):
            codec = FrameCodec(crf=crf)
            qualities.append(ssim(frame, codec.decode(codec.encode(frame))))
        assert qualities[0] >= qualities[1] >= qualities[2]

    def test_rate_tracks_content_energy(self):
        codec = FrameCodec()
        flat = np.full((64, 128), 0.5, dtype=np.float32)
        mild = scene_like_frame(3)
        busy = np.clip(
            mild + np.kron(
                np.random.default_rng(4).random((32, 64)), np.ones((2, 2))
            ).astype(np.float32) * 0.4 - 0.2,
            0, 1,
        )
        sizes = [codec.encode(f).luma_bytes for f in (flat, mild, busy)]
        assert sizes[0] < sizes[1] < sizes[2]
