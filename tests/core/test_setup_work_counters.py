"""Work counters of a game's set-up, pinned on one ``build_game`` +
``preprocess_game`` run.

Racing's set-up is the paper's offline scheme (§4.3) over a track-masked
world: region sampling against the reachability mask, the bounded radius
solve, and scene generation around the track.  Viking and cts run the
same scheme over open worlds.  Five ``perf`` counters measure that work:

* ``cutoff.samples`` — sampled locations the quadtree evaluated;
* ``cutoff.resolved`` — samples solved a second time out to the maximum
  radius because their budget crossing lay beyond the first bound;
* ``cutoff.box_scanned`` — objects tested while forming the solve's
  candidate boxes;
* ``reachability.residual_points`` — points measured against the track's
  segments (the coarse index's cell centres included);
* ``raster.vector.units`` — draw units (an object's non-empty column
  segments) the rasterizer filled.

The world is built afresh (not through the ``load_game`` memo), so the
count covers the track index and scene generation too.
"""

import pytest

from repro import perf
from repro.codec import FrameCodec
from repro.core.preprocess import preprocess_game
from repro.render import RenderCostModel
from repro.systems import SessionConfig
from repro.world.games import build_game

COUNTERS = (
    "cutoff.samples",
    "cutoff.resolved",
    "cutoff.box_scanned",
    "reachability.residual_points",
    "raster.vector.units",
)

# game -> counts in COUNTERS order.  Testing every racing object for every
# box would scan 8 906 175 (5 175 objects x 1 721 boxes); measuring the
# track band at every placement cell and snapping every sampling candidate
# would measure 29 174 points.  Set-up renders nothing; calibrating the
# far-BE and whole-BE size models in it would draw racing 4 919, viking
# 16 050 and cts 12 468 units and measure 16 more racing points.
PINNED = {
    "racing": (16_010, 549, 2_089_623, 11_985, 0),
    "viking": (3_370, 78, 416_062, 0, 0),
    "cts": (1_650, 38, 484_979, 0, 0),
}


def setup_counts(game):
    perf.reset()
    config = SessionConfig()
    preprocess_game(
        build_game(game),
        RenderCostModel(config.device),
        config.render_config,
        FrameCodec(crf=config.codec_crf),
        seed=3,
    )
    return tuple(perf.counter(name) for name in COUNTERS)


def test_racing_setup_work_counts():
    assert setup_counts("racing") == PINNED["racing"]


@pytest.mark.parametrize("game", ["cts", "viking"])
def test_open_world_setup_work_counts(game):
    assert setup_counts(game) == PINNED[game]


if __name__ == "__main__":
    for name in sorted(PINNED):
        print(name, setup_counts(name))
