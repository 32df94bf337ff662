"""Work counters of the full-render pixel path, pinned on a short cts session.

A full-render Coterie session (``render_frames=True``) draws far-BE
panoramas, the scorer's near-BE and whole-BE layers, and queues SSIM jobs
that a flush scores.  Five ``perf`` counters measure that work:

* ``online.ssim_jobs`` — SSIM jobs the queue flushed;
* ``ssim.batched_pairs`` — pairs ``ssim_pairs`` scored (equal to the jobs);
* ``ssim.rows_scored`` — frame rows the flushed pairs blurred: the rows
  within the blur radius of a row where a pair's frames differ;
* ``raster.vector.units`` — draw units (an object's non-empty column
  segments) the object draw filled;
* ``panorama.renders`` — far-BE panoramas rendered (the store is per
  session, so a warm session renders them again).

The counts are of a warm session (the same seed run a second time), so
lazily computed artifacts are memo hits and the count does not depend on
which tests ran first.
"""

from repro import perf
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game

PINNED = {
    "online.ssim_jobs": 18,
    "ssim.batched_pairs": 18,
    "ssim.rows_scored": 359,
    "raster.vector.units": 28_849,
    "panorama.renders": 12,
}


def warm_counts():
    world = load_game("cts")
    config = SessionConfig(seed=1, duration_s=1.0, render_frames=True)
    artifacts = prepare_artifacts(world, config)
    run_coterie(world, 3, config, artifacts)
    perf.reset()
    run_coterie(world, 3, config, artifacts)
    return {name: perf.counter(name) for name in PINNED}


def test_warm_fullrender_work_counts():
    assert warm_counts() == PINNED


if __name__ == "__main__":
    print(warm_counts())
