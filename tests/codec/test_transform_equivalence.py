"""The codec's transform against its ``einsum`` form, on real panoramas.

``forward_dct`` / ``inverse_dct`` run as chained ``np.matmul`` products,
which may differ from the three-operand ``einsum`` by ~6e-13 in float64.
These tests keep the ``einsum`` transforms as the reference and check
that the difference never reaches the codec's output: the encoded bytes
and the decoded float32 frames of far-BE panoramas of all nine games are
equal, bit for bit, through both ``decode`` and ``decode_batch``.
"""

import numpy as np
import pytest

from repro.codec import FrameCodec, dct_matrix
from repro.codec import h264like
from repro.geometry import Vec2
from repro.render import RenderConfig
from repro.render.splitter import eye_at, render_far_be
from repro.world import ALL_GAMES, load_game

POSES = 20
CUTOFFS = (5.0, 15.0, 40.0)


def einsum_forward_dct(blocks):
    c = dct_matrix()
    return np.einsum("ij,...jk,lk->...il", c, blocks.astype(np.float64), c)


def einsum_inverse_dct(coeffs, out=None):
    c = dct_matrix()
    promoted = np.asarray(coeffs, dtype=np.float64)
    if out is None:
        return np.einsum("ji,...jk,kl->...il", c, promoted, c)
    return np.einsum("ji,...jk,kl->...il", c, promoted, c, out=out)


def far_be_panoramas(game):
    """``POSES`` far-BE frames at the default resolution, at seeded
    points of the full-size world, cycling through ``CUTOFFS``."""
    world = load_game(game)
    bounds = world.bounds
    rng = np.random.default_rng(sum(map(ord, game)))
    config = RenderConfig()
    frames = []
    for pose in range(POSES):
        point = Vec2(
            float(rng.uniform(bounds.x_min, bounds.x_max)),
            float(rng.uniform(bounds.y_min, bounds.y_max)),
        )
        eye = eye_at(world.scene, point, world.spec.player.eye_height)
        cutoff = CUTOFFS[pose % len(CUTOFFS)]
        frames.append(render_far_be(world.scene, eye, config, cutoff).image)
    return frames


@pytest.mark.parametrize("game", ALL_GAMES)
def test_matmul_codec_equals_einsum_codec(game, monkeypatch):
    frames = far_be_panoramas(game)
    codec = FrameCodec()
    encoded = [codec.encode(frame) for frame in frames]
    decoded = [codec.decode(frame) for frame in encoded]
    batched = codec.decode_batch(encoded)

    monkeypatch.setattr(h264like, "forward_dct", einsum_forward_dct)
    monkeypatch.setattr(h264like, "inverse_dct", einsum_inverse_dct)
    for pose, frame in enumerate(frames):
        expected = codec.encode(frame)
        assert encoded[pose].data == expected.data, f"{game}[{pose}]: bytes differ"
        reference = codec.decode(expected)
        assert reference.dtype == np.float32
        assert np.array_equal(decoded[pose], reference), f"{game}[{pose}]: decode differs"
        assert np.array_equal(batched[pose], reference), f"{game}[{pose}]: batch differs"
