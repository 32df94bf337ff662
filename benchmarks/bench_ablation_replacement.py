"""Ablation — cache replacement: LRU vs FLF under memory pressure.

The paper explores both policies and reports that "both LRU and FLF work
effectively as spatial locality and temporal locality coincide well in
each player's movement" (§7), omitting details for space.  This ablation
supplies them: hit ratios for both policies across cache capacities from
plentiful to starved.
"""

from __future__ import annotations

import pytest

from harness import fmt, once, report
from repro.core import FLF, LRU, FrameCache, Prefetcher
from repro.trace import generate_trajectory
from repro.world import load_game

# 0.5 MB holds only a frame or two; 512 MB is effectively unbounded.
CAPACITIES_MB = (0.5, 1, 2, 8, 512)


def _replay(world, artifacts, policy: str, capacity_mb: float) -> float:
    cache = FrameCache(
        capacity_bytes=int(capacity_mb * 1024 * 1024), policy=policy
    )
    trajectory = generate_trajectory(world, duration_s=25, seed=23)
    prefetcher = Prefetcher(
        world.scene, world.grid, artifacts.cutoff_map,
        artifacts.dist_thresh_map, cache, trajectory=trajectory,
    )
    for index, sample in enumerate(trajectory.samples):
        decision = prefetcher.plan(sample.position, sample.t_ms, index=index)
        if decision.needs_fetch:
            size = artifacts.far_size_model.sample(decision.grid_point)
            prefetcher.admit(decision, None, size, sample.t_ms)
    return cache.stats.hit_ratio


def _run_all(artifacts):
    world = load_game("viking")
    rows = []
    data = {}
    for capacity in CAPACITIES_MB:
        lru = _replay(world, artifacts, LRU, capacity)
        flf = _replay(world, artifacts, FLF, capacity)
        data[capacity] = (lru, flf)
        rows.append(
            (f"{capacity} MB", fmt(100 * lru) + "%", fmt(100 * flf) + "%")
        )
    return rows, data


@pytest.mark.benchmark(group="ablation")
def test_ablation_replacement_policy(benchmark, headline_artifacts):
    rows, data = once(benchmark, _run_all, headline_artifacts["viking"])
    report(
        "ablation_replacement",
        ["cache capacity", "LRU hits", "FLF hits"],
        rows,
        notes="Viking Village, single player, 25 s trace. The paper's "
        "claim: the two policies track each other because spatial and "
        "temporal locality coincide in player movement.",
    )
    generous = data[CAPACITIES_MB[-1]]
    for capacity, (lru, flf) in data.items():
        # The policies stay close at every capacity.
        assert abs(lru - flf) < 0.15, f"{capacity} MB: policies diverge"
        # Hit ratio never exceeds the unconstrained cache's.
        assert lru <= generous[0] + 0.02
        assert flf <= generous[1] + 0.02
    # A starved cache costs hits; a plentiful one recovers them.
    assert generous[0] >= data[CAPACITIES_MB[0]][0]
