"""E-T3 — Table 3: game stats and the adaptive cutoff scheme's output.

For each of the 9 games: world dimension, (estimated) reachable grid
points, the quadtree's average/max depth and leaf-region count, and the
modeled offline processing time.  The paper's shapes: larger worlds get
deeper quadtrees; Viking's high density *variation* gives it by far the
most leaf regions despite a modest world; indoor games are smallest on
every column.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import PAPER, fmt, once, report
from repro.core import build_cutoff_map, measure_fi_budget
from repro.render import PIXEL2, RenderCostModel
from repro.world import ALL_GAMES, INDOOR_GAMES, game_spec, load_game


def _run_all():
    model = RenderCostModel(PIXEL2)
    rows = []
    stats = {}
    for game in ALL_GAMES:
        world = load_game(game)
        spec = game_spec(game)
        budget = measure_fi_budget(model, spec.fi_triangles)
        reachable = None
        if world.track is not None:
            reachable = world.grid.reachable_mask
        cutoff_map = build_cutoff_map(
            world.scene, model, budget, reachable=reachable, seed=3
        )
        tree_stats = cutoff_map.stats()
        grid_points = world.grid_point_count(np.random.default_rng(1))
        hours = cutoff_map.modeled_processing_hours()
        paper = PAPER["table3"][game]
        rows.append(
            (
                game,
                f"{spec.dimensions[0]:g}x{spec.dimensions[1]:g}",
                fmt(grid_points / 1e6, 2) + "M",
                f"{tree_stats.avg_depth:.2f}/{tree_stats.max_depth}",
                f"{paper[1]:.2f}/{paper[2]}",
                tree_stats.leaf_count,
                paper[0],
                fmt(hours, 2),
                fmt(paper[3], 2),
            )
        )
        stats[game] = (tree_stats, grid_points, hours)
    return rows, stats


@pytest.mark.benchmark(group="table3")
def test_table3_adaptive_cutoff_scheme(benchmark):
    rows, stats = once(benchmark, _run_all)
    report(
        "table3_cutoff_scheme",
        ["game", "dim (m)", "grid pts", "depth", "paper", "leaves", "paper",
         "proc h", "paper"],
        rows,
        notes="Adaptive cutoff scheme output per game. Grid points from the "
        "1/32 m lattice with reachability masks; processing hours from the "
        "on-device measurement-time model.",
    )
    # Grid point counts track Table 3's scale (full-area games exact by
    # construction; track games via the reachable fraction).
    expected_m = {"viking": 24.9, "cts": 268.4, "fps": 5.09, "soccer": 14.9,
                  "pool": 0.13, "bowling": 1.43, "corridor": 1.54}
    for game, millions in expected_m.items():
        measured = stats[game][1] / 1e6
        assert 0.5 * millions < measured < 2.0 * millions, game
    # Outdoor quadtrees are deeper and leafier than indoor ones.
    outdoor_leaves = [stats[g][0].leaf_count for g in ALL_GAMES if g not in INDOOR_GAMES]
    indoor_leaves = [stats[g][0].leaf_count for g in INDOOR_GAMES]
    assert min(outdoor_leaves) >= max(indoor_leaves)
    # Offline processing is "at most a few hours" for every game.
    for game in ALL_GAMES:
        assert stats[game][2] < 8.0
