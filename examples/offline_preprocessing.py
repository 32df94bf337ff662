#!/usr/bin/env python
"""The §6 offline preprocessing pipeline, step by step, on one game.

Shows what the Coterie server computes before game play: the FI render
budget, the adaptive cutoff quadtree (with its leaf regions and radii),
per-leaf distance thresholds, and the far-BE frame store with real
encoded frame sizes.

Run:  python examples/offline_preprocessing.py [game]
"""

import sys

import numpy as np

from repro.codec import FrameCodec
from repro.core import (
    PanoramaStore,
    build_cutoff_map,
    measure_dist_thresh,
    measure_fi_budget,
)
from repro.core.dist_thresh import DistThreshMap
from repro.render import PIXEL2, RenderConfig, RenderCostModel
from repro.world import load_game


def main(game: str = "cts") -> None:
    world = load_game(game)
    model = RenderCostModel(PIXEL2)
    config = RenderConfig()
    codec = FrameCodec(crf=25)

    print(f"== Offline preprocessing for {world.spec.title} ==\n")

    # Step 1: measure the FI budget on the target device (Constraint 1).
    budget = measure_fi_budget(model, world.spec.fi_triangles)
    print(f"1. FI budget: RT_FI bounded at {budget.fi_ms:.1f} ms "
          f"-> near-BE budget {budget.near_be_budget_ms:.1f} ms")

    # Step 2: adaptive cutoff scheme (recursive quadtree partitioning).
    reachable = None
    if world.track is not None:
        reachable = world.grid.reachable_mask
    cutoff_map = build_cutoff_map(
        world.scene, model, budget, reachable=reachable, seed=3
    )
    stats = cutoff_map.stats()
    radii = np.array(cutoff_map.leaf_radii())
    print(f"\n2. Adaptive cutoff scheme:")
    print(f"   {stats.leaf_count} leaf regions "
          f"(depth {stats.avg_depth:.2f} avg / {stats.max_depth} max)")
    print(f"   cutoff radii: {radii.min():.1f} - {radii.max():.1f} m "
          f"(median {np.median(radii):.1f} m)")
    print(f"   {cutoff_map.samples_evaluated} constraint evaluations; "
          f"modeled on-device time "
          f"{cutoff_map.modeled_processing_hours():.2f} h")

    # Step 3: distance threshold for one visited leaf (binary search on
    # real rendered far-BE SSIM).
    spawn = world.spawn_points(1)[0]
    leaf_key, cutoff = cutoff_map.leaf_for(spawn)
    rng = np.random.default_rng(5)
    thresh = measure_dist_thresh(world.scene, config, spawn, cutoff, rng)
    print(f"\n3. dist_thresh at the spawn leaf (cutoff {cutoff:.1f} m): "
          f"{thresh:.2f} m of reuse displacement keeps SSIM > 0.9")

    # Step 4: pre-render + pre-encode far-BE panoramas.
    store = PanoramaStore(world, config, codec, cutoff_map=cutoff_map)
    sizes = []
    for step in range(4):
        point = world.grid.snap(
            world.bounds.clamp(spawn.__class__(spawn.x + 2.0 * step, spawn.y))
        )
        frame = store.frame_for(point)
        sizes.append(frame.wire_bytes)
    print(f"\n4. Far-BE panorama store: {store.renders} frames rendered+encoded")
    print(f"   4K-equivalent sizes: "
          + ", ".join(f"{s / 1000:.0f} KB" for s in sizes))

    print("\nArtifacts ready: a Coterie client can now join (see "
          "examples/quickstart.py).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "cts")
