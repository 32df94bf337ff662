"""E-F1 — Figure 1: intra-player BE frame similarity, before/after split.

For each of the 9 games, render the panoramic BE frame at consecutive
trajectory viewpoints and measure adjacent-pair SSIM, (a) for the whole BE
and (b) for the far BE behind the adaptive cutoff.  The paper's result:
before decoupling 0-20 % of pairs exceed SSIM 0.9; after decoupling 85-100 %
(outdoor) and 65-90 % (indoor).
"""

from __future__ import annotations

import pytest

from harness import PAPER, fmt, once, report
from repro.core import measure_fi_budget, build_cutoff_map
from repro.render import PIXEL2, RenderCostModel, RenderConfig
from repro.render.splitter import eye_at, render_far_be, render_whole_be
from repro.similarity import adjacent_similarities, fraction_above
from repro.trace import generate_trajectory
from repro.world import ALL_GAMES, INDOOR_GAMES, load_game

PAIRS_PER_GAME = 50
CFG = RenderConfig()


def _game_similarity(game: str):
    world = load_game(game)
    model = RenderCostModel(PIXEL2)
    budget = measure_fi_budget(model, world.spec.fi_triangles)
    reachable = None
    if world.track is not None:
        reachable = world.grid.reachable_mask
    cutoff_map = build_cutoff_map(
        world.scene, model, budget, reachable=reachable, seed=3
    )
    trajectory = generate_trajectory(world, duration_s=30, seed=11)
    # "Adjacent" pairs are consecutive frames (= consecutive grid points)
    # along the trace; pair start points are strided so the PAIRS_PER_GAME
    # pairs span the whole trajectory.
    stride = max(1, len(trajectory) // PAIRS_PER_GAME)
    eye_height = world.spec.player.eye_height

    whole_sims = []
    far_sims = []
    for start in list(range(0, len(trajectory) - 1, stride))[:PAIRS_PER_GAME]:
        pair_positions = (
            trajectory[start].position,
            trajectory[start + 1].position,
        )
        whole_pair = []
        far_pair = []
        for position in pair_positions:
            eye = eye_at(world.scene, position, eye_height)
            whole_pair.append(render_whole_be(world.scene, eye, CFG).image)
            cutoff = cutoff_map.cutoff_for(position)
            far_pair.append(render_far_be(world.scene, eye, CFG, cutoff).image)
        whole_sims.append(adjacent_similarities(whole_pair)[0])
        far_sims.append(adjacent_similarities(far_pair)[0])
    return fraction_above(whole_sims), fraction_above(far_sims)


def _run_all():
    rows = []
    results = {}
    for game in ALL_GAMES:
        before, after = _game_similarity(game)
        indoor = game in INDOOR_GAMES
        rows.append(
            (
                game,
                "indoor" if indoor else "outdoor",
                fmt(100 * before, 0) + "%",
                "0-20%",
                fmt(100 * after, 0) + "%",
                "65-90%" if indoor else "85-100%",
            )
        )
        results[game] = (before, after)
    return rows, results


@pytest.mark.benchmark(group="fig1")
def test_fig1_intra_player_similarity(benchmark):
    rows, results = once(benchmark, _run_all)
    report(
        "fig1_intra_similarity",
        ["game", "type", ">0.9 before", "paper", ">0.9 after (far BE)", "paper"],
        rows,
        notes="Fraction of adjacent BE frame pairs with SSIM > 0.9 along a "
        "single-player trajectory, whole BE vs far BE at the adaptive "
        "cutoff (Fig. 1a/1b).",
    )
    lo, hi = PAPER["fig1_before"]
    for game, (before, after) in results.items():
        # Before decoupling: similarity is rare (paper: 0-20 %).
        assert before <= hi + 0.15, f"{game} before-split too similar"
        # After decoupling similarity improves drastically.
        assert after > before, f"{game} split did not improve similarity"
    outdoor_after = [
        after for game, (_, after) in results.items()
        if game not in INDOOR_GAMES
    ]
    assert sum(a > 0.6 for a in outdoor_after) >= 4, "outdoor far-BE gains too weak"
