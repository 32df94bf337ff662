"""Work counters of a racing set-up, pinned on one ``build_game`` +
``preprocess_game`` run.

Racing's set-up is the paper's offline scheme (§4.3) over a track-masked
world: region sampling against the reachability mask, the bounded radius
solve, and scene generation around the track.  Four ``perf`` counters
measure that work:

* ``cutoff.samples`` — sampled locations the quadtree evaluated;
* ``cutoff.resolved`` — samples solved a second time out to the maximum
  radius because their budget crossing lay beyond the first bound;
* ``cutoff.box_scanned`` — objects tested while forming the solve's
  candidate boxes;
* ``reachability.residual_points`` — points measured against the track's
  segments (the coarse index's cell centres included).

The world is built afresh (not through the ``load_game`` memo), so the
count covers the track index and scene generation too.
"""

from repro import perf
from repro.codec import FrameCodec
from repro.core.preprocess import preprocess_game
from repro.render import RenderCostModel
from repro.systems import SessionConfig
from repro.world.games import build_game

# Testing every object for every box would scan 8 906 175 (5 175 objects x
# 1 721 boxes); measuring the track band at every placement cell and
# snapping every sampling candidate would measure 29 174 points.
PINNED = {
    "cutoff.samples": 16_010,
    "cutoff.resolved": 549,
    "cutoff.box_scanned": 2_089_623,
    "reachability.residual_points": 12_001,
}


def setup_counts():
    perf.reset()
    config = SessionConfig()
    preprocess_game(
        build_game("racing"),
        RenderCostModel(config.device),
        config.render_config,
        FrameCodec(crf=config.codec_crf),
        seed=3,
    )
    return {name: perf.counter(name) for name in PINNED}


def test_racing_setup_work_counts():
    assert setup_counts() == PINNED


if __name__ == "__main__":
    print(setup_counts())
