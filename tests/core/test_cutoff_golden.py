"""Golden digests of the offline geometry path.

The array-backed track geometry, the batched region sampler and the
pruned radius search promise *bit-identical* output to the scalar code
they replaced.  These digests were recorded on the last commit that ran
the per-point, per-segment Python loops (PR 11): every generated scene
object of every game, and every cutoff-map leaf — region, the K sampled
radii in sampling order, and the sample count — for both track games at
full scale and all nine games at test scale.  A change that moves one
float of a sampled location, one RNG draw or one reachability boolean
changes a digest.
"""

import hashlib

import pytest

from repro.codec import FrameCodec
from repro.core.preprocess import preprocess_game
from repro.render import RenderCostModel
from repro.systems import SessionConfig
from repro.world import ALL_GAMES, load_game

TEST_SCALE = 0.25

# One row per game at scale 1.0: game, object count, digest.
SCENE_ROWS = """
bowling 999 d187f892faa4e91dbaba1bde583098b837443deeb1fc4b80538d824f5bf435a0
corridor 1266 905f25f7257b62cbfa50239e4b42a2d9201cdeb731c844d178b578f2b8fcc37d
cts 4796 a059f759248efcda18ccc260d4d327c68541366bc81824665590a223102a6a19
ds 1403 732372521b9ec63fae64d0cbb7086a56a003aa71c92bb967ed7b96fb658db13f
fps 1674 23ce949a7f5383bc55b368b973f1883c74089a123654bcb251a314a42f5bb0f3
pool 527 da624e834b72fa69be053bdc408b953a46488f02009670c321bc06e5bc52b136
racing 5175 60096df8a3b9b3fa4bfb14ec569e2cd992735ffe441ba048040cb36fa8f2c8b7
soccer 1838 456ddccabe2838acbf3ac2b53d56e0d5f8912fb7b4900acb62555b7dc1cac463
viking 2400 38f6b50b02503a9d21055eb37d2b185785d247c7e3c341a90a2f53d4388c9fd5
"""

# One row per (game, scale): game, scale, leaves, samples evaluated, digest.
CUTOFF_ROWS = """
bowling 0.25 1 10 0fbc9578b7372c7d809999621ef79beac850bb16e48a3145da7ed70a83d7bc8f
corridor 0.25 1 10 fa4e8daa90b6134806fb19424a4e88770b42dcbfc5adfade67134019b6dbcd13
cts 0.25 1 10 5560b87f10a5dd5c7ecbb42103150e5ec21b3d71a8782a8e2594f2b52b61629f
ds 0.25 115 1530 592df184a330368575ebb7403fe5b97bb8f6298c1299c7bfaec6de9d713eda2f
ds 1.0 136 1810 23fd88ede45303f43f66096b494c9adf6234e3bb966f59a7215e880659008bd0
fps 0.25 4 50 d0f29e306ff5c9c3a9faa79f19a83e768b73d308487592da940dbcffab6c8057
pool 0.25 1 10 b8344dba44636ed929cd2dd41fdd15b4a468dda5cb197a6767e61f9da3723142
racing 0.25 1018 13570 d2976d9df82f4fb6a44bb2449bd2c85ae813c18bfd9073d538eac6b6e460ff01
racing 1.0 1201 16010 a71057548d01df3fc78975ba9ee122609494be849310abc8ff6d20eb6162e90d
soccer 0.25 7 90 9682ad8b1a368d8fca8314d384f73264f854ce3ec98baf577eb2c00da6359d2d
viking 0.25 64 850 58314dec4fddef500b583dcabb6490bb03cc1e5b8b3691131ceaf89eee0d368c
"""

SCENE_GOLDEN = {
    game: (int(count), digest)
    for game, count, digest in map(str.split, SCENE_ROWS.strip().splitlines())
}
CUTOFF_GOLDEN = {
    (game, float(scale)): (int(leaves), int(samples), digest)
    for game, scale, leaves, samples, digest in map(str.split, CUTOFF_ROWS.strip().splitlines())
}


def scene_digest(scene) -> str:
    """sha256 over every field of every object, floats as exact hex."""
    h = hashlib.sha256()
    for o in scene.objects:
        fields = (
            o.object_id,
            o.kind_name,
            o.center.x.hex(),
            o.center.y.hex(),
            o.center.z.hex(),
            o.radius.hex(),
            o.triangles,
            o.luminance.hex(),
            o.contrast.hex(),
            o.texture_seed,
        )
        h.update(repr(fields).encode())
    return h.hexdigest()


def cutoff_digest(cutoff_map) -> str:
    """sha256 over every leaf's region and sampled radii, then the sample count."""
    h = hashlib.sha256()
    for leaf in cutoff_map.tree.leaves():
        r = leaf.region
        region = (r.x_min.hex(), r.y_min.hex(), r.x_max.hex(), r.y_max.hex())
        radii = tuple(v.hex() for v in leaf.payload.sampled_radii)
        h.update(repr((region, radii)).encode())
    h.update(repr(cutoff_map.samples_evaluated).encode())
    return h.hexdigest()


def test_golden_tables_cover_what_they_claim():
    assert sorted(SCENE_GOLDEN) == sorted(ALL_GAMES)
    track_games = {g for g in ALL_GAMES if load_game(g, TEST_SCALE).track is not None}
    expected = {(g, TEST_SCALE) for g in ALL_GAMES} | {(g, 1.0) for g in track_games}
    assert set(CUTOFF_GOLDEN) == expected


@pytest.mark.parametrize("game", sorted(SCENE_GOLDEN))
def test_scene_objects_match_golden(game):
    count, digest = SCENE_GOLDEN[game]
    scene = load_game(game).scene
    assert len(scene) == count
    assert scene_digest(scene) == digest


@pytest.mark.parametrize("game,scale", sorted(CUTOFF_GOLDEN))
def test_cutoff_leaves_match_golden(game, scale):
    leaves, samples, digest = CUTOFF_GOLDEN[(game, scale)]
    config = SessionConfig()
    artifacts = preprocess_game(
        load_game(game, scale),
        RenderCostModel(config.device),
        config.render_config,
        FrameCodec(crf=config.codec_crf),
        seed=3,
    )
    cutoff_map = artifacts.cutoff_map
    assert len(cutoff_map.leaf_radii()) == leaves
    assert cutoff_map.samples_evaluated == samples
    assert cutoff_digest(cutoff_map) == digest
