#!/usr/bin/env python
"""Frame-cache exploration: lookup versions and replacement policies.

Replays one player's movement trace against the far-BE frame cache under
(a) the five lookup configurations of Table 4/5 (exact vs similar, own vs
overheard frames) and (b) LRU vs FLF replacement under a tight memory cap.

Run:  python examples/cache_explorer.py [game]
"""

import sys

from repro.codec import FrameCodec
from repro.core import (
    FLF,
    LRU,
    FrameCache,
    Prefetcher,
    preprocess_game,
)
from repro.render import PIXEL2, RenderConfig, RenderCostModel
from repro.trace import generate_party
from repro.world import load_game


def replay(world, artifacts, cache, n_players=1, duration_s=20.0):
    """Drive per-player prefetchers over a party's traces; returns caches."""
    party = generate_party(world, n_players, duration_s, seed=19)
    prefetcher = Prefetcher(
        world.scene, world.grid, artifacts.cutoff_map,
        artifacts.dist_thresh_map, cache, trajectory=party[0],
    )
    for index, sample in enumerate(party[0].samples):
        decision = prefetcher.plan(sample.position, sample.t_ms, index=index)
        if decision.needs_fetch:
            size = artifacts.far_size_model.sample(decision.grid_point)
            prefetcher.admit(decision, None, size, sample.t_ms)
    return cache


def main(game: str = "viking") -> None:
    world = load_game(game)
    print(f"Preprocessing {world.spec.title}...")
    artifacts = preprocess_game(
        world, RenderCostModel(PIXEL2), RenderConfig(), FrameCodec(), seed=3
    )

    print("\n-- Lookup modes (single player, 20 s trace) --")
    exact = replay(world, artifacts, FrameCache(exact_only=True))
    similar = replay(world, artifacts, FrameCache())
    print(f"  exact grid-point matching : "
          f"{100 * exact.stats.hit_ratio:5.1f}% hits "
          f"(Table 5 V1: 0% — players never revisit exact points)")
    print(f"  similarity lookup (S5.3)  : "
          f"{100 * similar.stats.hit_ratio:5.1f}% hits "
          f"(Table 5 V3: ~80%)")

    print("\n-- Replacement policies under a tight 8 MB cache --")
    for policy in (LRU, FLF):
        cache = replay(
            world, artifacts,
            FrameCache(capacity_bytes=8 * 1024 * 1024, policy=policy),
        )
        print(f"  {policy.upper():3s}: {100 * cache.stats.hit_ratio:5.1f}% hits, "
              f"{cache.stats.evictions} evictions, "
              f"{len(cache)} frames resident")
    print("\nBoth policies track each other closely: spatial and temporal "
          "locality coincide in player movement (S7, 'Caching results').")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "viking")
