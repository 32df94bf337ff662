"""Work counters of the per-frame loop, pinned on short sessions.

A Coterie frame needs RT_nearBE at the player's position and the
near-object ids at the snapped grid point.  The prefetcher resolves each
for a chunk of trajectory samples at a time, in one batched query, one
call of the scene's disc kernel.  Two ``perf`` counters measure how much of
the scene that touches:

* ``scene_query.objects_scanned`` — objects in the cell rows that one
  block of a query's centres spans (the slab ``Scene.discs`` reads once
  for the whole block);
* ``cost_model.exact_distances`` — candidates whose LOD weight needs a
  ``math.hypot`` distance because they lie inside the LOD floor's reach,
  for every sample of a resolved chunk, displayed or not.

Two more count what the loop decides and dispatches:

* ``cache.miss.empty`` / ``.distance`` / ``.leaf`` / ``.near_set`` — each
  far-BE cache miss, by the furthest §5.3 criterion a resident frame
  reached before failing;
* ``sim.dispatched`` — discrete events the simulator ran.

The counts are of a warm session (the same seed run a second time, so
lazily computed artifacts are memo hits and the count does not depend on
which tests ran first).  Racing's sparse regions put the cutoff past the
floor's reach; viking's cutoffs stay inside it, so every candidate there
is measured exactly.  Racing's misses are almost all near-set misses.

A cold session pays for the artifacts it computes on first request.  Its
counts are pinned on fresh ``preprocess_game`` artifacts (not the
``prepare_artifacts`` memo, which other tests fill):

* ``dist_thresh.probes`` — far-BE frames the dist-thresh searches rendered
  and scored;
* ``computed_leaves`` — leaves whose dist_thresh the session measured;
* ``panorama.renders`` — far-BE panoramas rendered (none in a size-only
  session);
* ``raster.vector.units`` — draw units the rasterizer filled;
* ``ssim.rows_scored`` — frame rows the probes' SSIM blurred.
"""

import pytest

from repro import perf
from repro.codec import FrameCodec
from repro.core.preprocess import preprocess_game
from repro.render import RenderCostModel
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game

# game -> (objects scanned, exact distances) over 0.6 s.  Scanning every
# object for each of the 144 queries and measuring every candidate would
# count racing (745 200, 6 802) and viking (345 600, 11 171); one query per
# sample and query point scanned racing 426 034 and viking 166 752.  The
# snapped points' blocks span the same rows as the positions', so each
# chunk's two queries scan equal slabs.
PINNED = {
    "racing": (103_568, 1_849),
    "viking": (18_528, 11_171),
}

# game -> (misses by criterion: empty, distance, leaf, near set; events
# dispatched) over 2 s.
PINNED_LOOP = {
    "racing": ((2, 0, 1, 76), 473),
    "viking": ((2, 9, 2, 38), 394),
}

# (dist-thresh probes, computed leaves, panorama renders, draw units, SSIM
# rows scored) of a cold, size-only viking session over 0.6 s.  The draw
# units include the far-BE size model's calibration (7 330), which the
# session's first read triggers.
PINNED_COLD = (50, 3, 0, 62_924, 2_774)

MISS_COUNTERS = tuple(
    f"cache.miss.{label}" for label in ("empty", "distance", "leaf", "near_set")
)


def warm_counters(game, duration_s):
    world = load_game(game)
    config = SessionConfig(seed=1, duration_s=duration_s)
    artifacts = prepare_artifacts(world, config)
    run_coterie(world, 2, config, artifacts)
    perf.reset()
    run_coterie(world, 2, config, artifacts)
    return perf.counter


def warm_counts(game):
    counter = warm_counters(game, 0.6)
    return (
        counter("scene_query.objects_scanned"),
        counter("cost_model.exact_distances"),
    )


def warm_loop_counts(game):
    counter = warm_counters(game, 2.0)
    return tuple(counter(name) for name in MISS_COUNTERS), counter("sim.dispatched")


def cold_counts():
    world = load_game("viking")
    config = SessionConfig(seed=1, duration_s=0.6)
    artifacts = preprocess_game(
        world,
        RenderCostModel(config.device),
        config.render_config,
        FrameCodec(crf=config.codec_crf),
        seed=3,
    )
    perf.reset()
    run_coterie(world, 2, config, artifacts)
    return (
        perf.counter("dist_thresh.probes"),
        artifacts.dist_thresh_map.computed_leaves,
        perf.counter("panorama.renders"),
        perf.counter("raster.vector.units"),
        perf.counter("ssim.rows_scored"),
    )


@pytest.mark.parametrize("game", sorted(PINNED))
def test_warm_session_work_counts(game):
    assert warm_counts(game) == PINNED[game]


@pytest.mark.parametrize("game", sorted(PINNED_LOOP))
def test_warm_session_miss_and_dispatch_counts(game):
    assert warm_loop_counts(game) == PINNED_LOOP[game]


def test_cold_session_work_counts():
    assert cold_counts() == PINNED_COLD


if __name__ == "__main__":
    print("viking cold", cold_counts())
    for name in sorted(PINNED):
        print(name, warm_counts(name), warm_loop_counts(name))
