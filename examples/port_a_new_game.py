#!/usr/bin/env python
"""Ease of porting (§6): bring a brand-new game up under Coterie.

The paper's framework is app-independent: porting a game takes (1) running
the offline preprocessing, (2) generating far-BE panoramas, (3) attaching
the merge prefab, (4) applying the plugins.  Here we define a game that is
NOT in the study's catalog — a small orchard-village "Harvest" map — from
scratch, and run the same four steps.

Run:  python examples/port_a_new_game.py
"""

import numpy as np

from repro.codec import FrameCodec
from repro.core import PanoramaStore, build_cutoff_map, measure_fi_budget
from repro.core.dist_thresh import DistThreshMap
from repro.geometry import Rect, Vec2, WorldGrid
from repro.render import PIXEL2, RenderConfig, RenderCostModel
from repro.render.splitter import eye_at, render_display_frame
from repro.similarity import ssim
from repro.world import (
    DensityField,
    FullAreaMask,
    KindMixture,
    RollingTerrain,
    Scene,
    generate_scene,
    kind,
)
from repro.world.games import GRID_PITCH


def build_harvest_world():
    """Step 0: the game developer's world — not part of the 9-game study."""
    bounds = Rect(0, 0, 120.0, 90.0)
    terrain = RollingTerrain(amplitude=1.0, wavelength=45.0, phase_seed=2024)
    density = DensityField(
        base=1_500.0,
        blobs=DensityField.random_blobs(
            bounds, 12, (5.0, 12.0), (2_000.0, 9_000.0),
            np.random.default_rng(2024),
        ),
    )
    mixture = KindMixture(
        kinds=(kind("tree"), kind("hut"), kind("fence"), kind("crate")),
        weights=(0.45, 0.25, 0.18, 0.12),
    )
    objects = generate_scene(
        bounds, terrain, density, mixture, seed=2024,
        clutter_mixture=KindMixture((kind("grass"), kind("rock")), (0.7, 0.3)),
        clutter_per_m2=0.05,
    )
    scene = Scene(bounds, objects, terrain, ground_seed=2024)
    grid = WorldGrid(bounds, GRID_PITCH, reachable=FullAreaMask(bounds))
    return scene, grid


def main() -> None:
    scene, grid = build_harvest_world()
    print(f"'Harvest' world built: {len(scene)} objects, "
          f"{scene.total_triangles() / 1e6:.0f} M triangles")

    model = RenderCostModel(PIXEL2)
    config = RenderConfig()
    codec = FrameCodec()

    # Port step 1: offline preprocessing (cutoffs + distance thresholds).
    budget = measure_fi_budget(model, fi_triangles=400_000)
    cutoff_map = build_cutoff_map(scene, model, budget, seed=1)
    dist_map = DistThreshMap(scene, config, cutoff_map, seed=1)
    stats = cutoff_map.stats()
    print(f"1. cutoffs computed: {stats.leaf_count} leaf regions, "
          f"radii {min(cutoff_map.leaf_radii()):.1f}-"
          f"{max(cutoff_map.leaf_radii()):.1f} m")

    # Port step 2: generate far-BE panoramas for the radii.  The store API
    # takes a GameWorld; wrap the custom pieces in one (spec only supplies
    # the player/device profile defaults).
    from repro.world.games import GameWorld, game_spec
    harvest = GameWorld(
        spec=game_spec("viking"),  # device/player profile defaults
        scene=scene, grid=grid, terrain=scene.terrain, track=None, scale=1.0,
    )
    store = PanoramaStore(harvest, config, codec, cutoff_map=cutoff_map)
    center = Vec2(60.0, 45.0)
    frame = store.frame_for(grid.snap(center))
    print(f"2. far-BE panoramas: {frame.wire_bytes / 1000:.0f} KB "
          f"4K-equivalent per frame")

    # Port step 3: merge near + far on the client (the SphereTexture step).
    cutoff = cutoff_map.cutoff_for(center)
    displayed = render_display_frame(scene, eye_at(scene, center), config, cutoff)
    print(f"3. merged display frame rendered ({displayed.shape[1]}x"
          f"{displayed.shape[0]})")

    # Port step 4: verify frame reuse works out of the box — merge a far-BE
    # frame cached at the spawn with the near BE rendered after moving
    # dist_thresh metres, and compare against the all-local reference.
    from repro.render.splitter import reference_frame, render_far_be

    thresh = dist_map.threshold_for(center)
    cached_far = render_far_be(scene, eye_at(scene, center), config, cutoff)
    moved = Vec2(center.x + min(0.5, thresh), center.y)
    reused = render_display_frame(
        scene, eye_at(scene, moved), config, cutoff, far_be=cached_far
    )
    reference = reference_frame(scene, eye_at(scene, moved), config)
    print(f"4. cache reuse live: dist_thresh {thresh:.2f} m at spawn; "
          f"reused-frame SSIM vs reference {ssim(reused, reference):.3f}")
    print("\nNew game ported with zero framework changes.")


if __name__ == "__main__":
    main()
