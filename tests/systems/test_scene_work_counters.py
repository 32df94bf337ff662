"""Work counters of the per-frame scene queries, pinned on short sessions.

A Coterie frame asks the scene for RT_nearBE at the player's position and
for the near-object ids at the snapped grid point.  Two ``perf`` counters
measure how much of the scene those queries touch:

* ``scene_query.objects_scanned`` — objects in the cell rows a query's
  square spans (the slice ``Scene._candidates`` reads);
* ``cost_model.exact_distances`` — candidates whose LOD weight needs a
  ``math.hypot`` distance because they lie inside the LOD floor's reach.

The counts are of a warm session (the same seed run a second time, so
lazily computed artifacts are memo hits and the count does not depend on
which tests ran first).  Racing's sparse regions put the cutoff past the
floor's reach; viking's cutoffs stay inside it, so every candidate there
is measured exactly.
"""

import pytest

from repro import perf
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game

# game -> (objects scanned, exact distances).  Scanning every object and
# measuring every candidate would count racing (745 200, 6 802) and viking
# (345 600, 11 171).
PINNED = {
    "racing": (426_034, 1_849),
    "viking": (166_752, 11_171),
}


def warm_counts(game):
    world = load_game(game)
    config = SessionConfig(seed=1, duration_s=0.6)
    artifacts = prepare_artifacts(world, config)
    run_coterie(world, 2, config, artifacts)
    perf.reset()
    run_coterie(world, 2, config, artifacts)
    return (
        perf.counter("scene_query.objects_scanned"),
        perf.counter("cost_model.exact_distances"),
    )


@pytest.mark.parametrize("game", sorted(PINNED))
def test_warm_session_work_counts(game):
    assert warm_counts(game) == PINNED[game]


if __name__ == "__main__":
    for name in sorted(PINNED):
        print(name, warm_counts(name))
