"""E-F7 — Figure 7: CDF of the leaf regions' cutoff radii, all 9 games.

Paper shapes: most games' radii sit in a narrow small range; DS spreads
half its radii between 10 and 100 m (dense start/finish vs. empty track),
and Racing Mountain spreads all the way to ~180 m (forest sections vs.
open valley).  Indoor radii are the smallest.
"""

from __future__ import annotations

import numpy as np
import pytest

from ascii_plot import ascii_cdf
from harness import fmt, once, report
from repro.core import build_cutoff_map, measure_fi_budget
from repro.render import PIXEL2, RenderCostModel
from repro.similarity import similarity_cdf
from repro.world import ALL_GAMES, INDOOR_GAMES, load_game


def _run_all():
    model = RenderCostModel(PIXEL2)
    rows = []
    radii_by_game = {}
    for game in ALL_GAMES:
        world = load_game(game)
        budget = measure_fi_budget(model, world.spec.fi_triangles)
        reachable = None
        if world.track is not None:
            reachable = world.grid.reachable_mask
        cutoff_map = build_cutoff_map(
            world.scene, model, budget, reachable=reachable, seed=3
        )
        radii = np.array(cutoff_map.leaf_radii())
        radii_by_game[game] = radii
        rows.append(
            (
                game,
                "indoor" if game in INDOOR_GAMES else "outdoor",
                len(radii),
                fmt(float(np.min(radii))),
                fmt(float(np.percentile(radii, 25))),
                fmt(float(np.median(radii))),
                fmt(float(np.percentile(radii, 75))),
                fmt(float(np.max(radii))),
            )
        )
    return rows, radii_by_game


@pytest.mark.benchmark(group="fig7")
def test_fig7_cutoff_radius_cdf(benchmark):
    rows, radii = once(benchmark, _run_all)
    plot = ascii_cdf(
        {name: radii[name].tolist() for name in ("viking", "racing", "ds", "cts")},
        x_label="cutoff radius (m)",
        x_min=0.0,
        x_max=180.0,
    )
    report(
        "fig7_radius_cdf",
        ["game", "type", "leaves", "min", "p25", "median", "p75", "max"],
        rows,
        notes="Leaf-region cutoff radius distribution (Fig. 7's CDFs, "
        "summarized by quartiles). Paper: Viking 2-28 m, DS half spread "
        "10-100 m, Racing spread 10-180 m, indoor smallest.\n" + plot,
    )
    # Racing games have by far the widest spreads.
    racing_spread = np.percentile(radii["racing"], 90) - np.percentile(radii["racing"], 10)
    viking_spread = np.percentile(radii["viking"], 90) - np.percentile(radii["viking"], 10)
    assert racing_spread > viking_spread
    assert np.max(radii["racing"]) > 120.0
    # Indoor radii are small and tight.
    for game in INDOOR_GAMES:
        assert np.max(radii[game]) < 20.0
    # Every radius is positive and bounded by the search ceiling.
    for game, values in radii.items():
        assert np.all(values >= 0.0)
        assert np.all(values <= 180.0)
