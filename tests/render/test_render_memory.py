"""Working sets of the pixel path's renders, bounded with ``tracemalloc``.

The object draw and the ground texture run a block of frame rows at a
time, so a render's temporaries stay at a few blocks' worth, not several
frames of float64 arrays that the allocator trims and faults back in on
every call.  ``tracemalloc`` sees every numpy buffer, and the sizes
depend neither on the allocator nor on the CPU, so these bounds are
deterministic where page-fault counts are not.  Measured at the spawn
points below: ``render_near_and_whole_be`` peaks at 3.0 MB (5.2 MB when
each draw built its whole pixel list at once) and a far-BE probe at
2.1 MB (3.2 MB).
"""

import tracemalloc

from repro.render import RenderConfig
from repro.render.splitter import eye_at, render_far_be, render_near_and_whole_be
from repro.world import load_game

MB = 2**20


def spawn_eye(game):
    world = load_game(game)
    return world.scene, eye_at(world.scene, world.spawn_points(1)[0], world.spec.player.eye_height)


def peak_bytes(render):
    render()  # fill the sky memo first: it is shared, not per call
    tracemalloc.start()
    try:
        render()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scorer_pair_stays_at_a_few_frames():
    """The full-render scorer's near-BE and whole-BE layers at a cts eye."""
    scene, eye = spawn_eye("cts")
    peak = peak_bytes(lambda: render_near_and_whole_be(scene, eye, RenderConfig(), 35.0))
    assert peak < 4 * MB


def test_dist_thresh_probe_stays_small():
    """One dist-thresh probe: a far-BE render at a viking eye."""
    scene, eye = spawn_eye("viking")
    peak = peak_bytes(lambda: render_far_be(scene, eye, RenderConfig(), 30.0))
    assert peak < 2.6 * MB
