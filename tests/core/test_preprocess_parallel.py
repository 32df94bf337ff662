"""Persistence of the lazy offline pipeline.

Thresholds, size models and panoramas are each computed in one place, on
first request; ``cache_dir`` only puts a disk store behind those lookups.
A rerun on the same directory must therefore read everything back —
bit-identical, nothing recomputed — and without ``cache_dir`` nothing may
touch the disk.
"""

from repro.codec import FrameCodec
from repro.core.cutoff import leaf_key
from repro.core.preprocess import PanoramaStore, preprocess_game
from repro.render import RenderCostModel
from repro.render.rasterizer import RenderConfig
from repro.systems.base import SessionConfig
from repro.world.games import load_game

CONFIG = RenderConfig(width=48, height=24)
COST = RenderCostModel(SessionConfig().device)


def _grid_points(world, count=3):
    seen = []
    for point in world.spawn_points(count * 2):
        snapped = world.grid.snap(point)
        if snapped not in seen:
            seen.append(snapped)
    return seen[:count]


def _visit(world, cache_dir, grid_points):
    """Preprocess on ``cache_dir``, enter every leaf, serve the grid points."""
    artifacts = preprocess_game(
        world, COST, CONFIG, FrameCodec(), seed=0, size_samples=2,
        cache_dir=str(cache_dir),
    )
    for leaf in artifacts.cutoff_map.tree.leaves():
        artifacts.dist_thresh_map.threshold_for(leaf.region.center)
    store = PanoramaStore(
        world, CONFIG, FrameCodec(), cutoff_map=artifacts.cutoff_map,
        eye_height=world.spec.player.eye_height,
        disk_cache=artifacts.disk_cache,
    )
    frames = [store.frame_for(grid_point).encoded.data for grid_point in grid_points]
    return artifacts, store, frames


def test_warm_cache_rerun_skips_computation(tmp_path):
    world = load_game("racing", scale=0.12)
    grid_points = _grid_points(world)
    cold, cold_store, cold_frames = _visit(world, tmp_path / "cache", grid_points)
    assert cold.disk_cache.misses > 0
    assert cold_store.renders == len(grid_points)
    leaves = {leaf_key(leaf.region) for leaf in cold.cutoff_map.tree.leaves()}
    assert set(cold.dist_thresh_map._cache) == leaves
    warm, warm_store, warm_frames = _visit(world, tmp_path / "cache", grid_points)
    # Everything — thresholds, panoramas, size models — comes off disk.
    assert warm.disk_cache.misses == 0
    assert warm_store.renders == 0
    assert warm_frames == cold_frames
    assert warm.dist_thresh_map._cache == cold.dist_thresh_map._cache
    assert warm.far_size_model == cold.far_size_model
    assert warm.whole_size_model == cold.whole_size_model


def test_default_options_unchanged_signature(tmp_path):
    """No ``cache_dir`` == historical behaviour: nothing eager, nothing on disk."""
    world = load_game("racing", scale=0.12)
    artifacts = preprocess_game(
        world, COST, CONFIG, FrameCodec(), seed=0, size_samples=2
    )
    assert artifacts.disk_cache is None
    assert artifacts.dist_thresh_map.computed_leaves == 0
    assert not list(tmp_path.iterdir())
