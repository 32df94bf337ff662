"""E-F6 — Figure 6: Constraint-1 violations vs. the sample count K.

The adaptive scheme samples K locations per region; too small a K misses
dense pockets and produces leaf radii that violate Constraint 1 at some
trajectory locations.  The paper finds K=10 keeps violations under 0.25 %.
"""

from __future__ import annotations

import pytest

from harness import fmt, once, report
from repro.core import (
    CutoffSchemeConfig,
    build_cutoff_map,
    measure_fi_budget,
)
from repro.core.constraint import NEAR_BE_HEADROOM
from repro.render import PIXEL2, RenderCostModel
from repro.trace import generate_trajectory
from repro.world import load_game

GAMES = ("viking", "racing", "cts")
K_VALUES = (1, 2, 5, 10, 20)


def _violation_rate(game: str, k: int) -> float:
    world = load_game(game)
    model = RenderCostModel(PIXEL2)
    budget = measure_fi_budget(model, world.spec.fi_triangles)
    reachable = None
    if world.track is not None:
        reachable = world.grid.reachable_mask
    cutoff_map = build_cutoff_map(
        world.scene, model, budget,
        config=CutoffSchemeConfig(k_samples=k),
        reachable=reachable, seed=5,
    )
    positions = generate_trajectory(world, duration_s=30, seed=13).positions()[::6]
    # RT_nearBE at every checked location under its leaf's cutoff, from
    # one batched query.
    costs = model.near_be_ms(
        world.scene, positions, [cutoff_map.cutoff_for(p) for p in positions]
    )
    # Violates the paper's raw Constraint 1 (headroom removed).
    violations = sum(cost >= budget.near_be_budget_ms / NEAR_BE_HEADROOM for cost in costs)
    return violations / len(costs)


def _run_all():
    rows = []
    rates = {}
    for game in GAMES:
        row = [game]
        for k in K_VALUES:
            rate = _violation_rate(game, k)
            rates[(game, k)] = rate
            row.append(fmt(100 * rate, 2) + "%")
        rows.append(tuple(row))
    return rows, rates


@pytest.mark.benchmark(group="fig6")
def test_fig6_constraint_violations_vs_k(benchmark):
    rows, rates = once(benchmark, _run_all)
    report(
        "fig6_k_sweep",
        ["game"] + [f"K={k}" for k in K_VALUES],
        rows,
        notes="Percentage of trajectory locations whose leaf cutoff radius "
        "violates Constraint 1 (paper: < 0.25% at K=10).",
    )
    for game in GAMES:
        # At the paper's K=10, violations are rare.
        assert rates[(game, 10)] < 0.05, f"{game}: too many violations at K=10"
        # More samples never make things dramatically worse.
        assert rates[(game, 10)] <= rates[(game, 1)] + 0.02
