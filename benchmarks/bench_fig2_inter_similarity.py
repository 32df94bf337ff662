"""E-F2 — Figure 2: inter-player best-case BE similarity, before/after split.

Two players play each game simultaneously in close proximity; for each of
player 1's BE frames we search player 2's frames for the most similar one
(best-case oracle).  Before decoupling the best case is still poor; after
decoupling, outdoor games reach high inter-player similarity while indoor
games stay low (players do not follow each other closely there).
"""

from __future__ import annotations

import pytest

from harness import fmt, once, report
from repro.core import build_cutoff_map, measure_fi_budget
from repro.render import PIXEL2, RenderCostModel, RenderConfig
from repro.render.splitter import eye_at, render_far_be, render_whole_be
from repro.similarity import best_case_similarities, fraction_above
from repro.trace import generate_party
from repro.world import ALL_GAMES, INDOOR_GAMES, load_game

CFG = RenderConfig()
FRAMES_A = 12  # player-1 query frames
FRAMES_B = 60  # player-2 candidate frames


def _frames_along(world, cutoff_map, trajectory, count):
    stride = max(1, len(trajectory) // count)
    whole, far = [], []
    for sample in trajectory.samples[::stride][:count]:
        eye = eye_at(world.scene, sample.position, world.spec.player.eye_height)
        whole.append(render_whole_be(world.scene, eye, CFG).image)
        cutoff = cutoff_map.cutoff_for(sample.position)
        far.append(render_far_be(world.scene, eye, CFG, cutoff).image)
    return whole, far


def _game_inter_similarity(game):
    world = load_game(game)
    model = RenderCostModel(PIXEL2)
    budget = measure_fi_budget(model, world.spec.fi_triangles)
    reachable = None
    if world.track is not None:
        reachable = world.grid.reachable_mask
    cutoff_map = build_cutoff_map(
        world.scene, model, budget, reachable=reachable, seed=3
    )
    # Tight proximity, as in the paper's closely-interacting parties.
    party = generate_party(world, 2, duration_s=25, seed=21, follow_radius=2.0)
    whole_a, far_a = _frames_along(world, cutoff_map, party[0], FRAMES_A)
    whole_b, far_b = _frames_along(world, cutoff_map, party[1], FRAMES_B)
    before = fraction_above(best_case_similarities(whole_a, whole_b))
    after = fraction_above(best_case_similarities(far_a, far_b))
    return before, after


def _run_all():
    rows, results = [], {}
    for game in ALL_GAMES:
        before, after = _game_inter_similarity(game)
        indoor = game in INDOOR_GAMES
        rows.append(
            (
                game,
                "indoor" if indoor else "outdoor",
                fmt(100 * before, 0) + "%",
                "~0%",
                fmt(100 * after, 0) + "%",
                "2-33%" if indoor else "55-100%",
            )
        )
        results[game] = (before, after)
    return rows, results


@pytest.mark.benchmark(group="fig2")
def test_fig2_inter_player_similarity(benchmark):
    rows, results = once(benchmark, _run_all)
    report(
        "fig2_inter_similarity",
        ["game", "type", ">0.9 before", "paper", ">0.9 after (far BE)", "paper"],
        rows,
        notes="Best-case SSIM between two co-playing players' BE frames "
        "(Fig. 2a/2b): the oracle picks player 2's most similar frame for "
        "each of player 1's frames.",
    )
    for game, (before, after) in results.items():
        assert after >= before, f"{game}: split reduced inter-player similarity"
    outdoor_gains = [
        after for game, (_, after) in results.items() if game not in INDOOR_GAMES
    ]
    # Most outdoor games see substantial best-case similarity after split.
    assert sum(a >= 0.5 for a in outdoor_gains) >= 4
