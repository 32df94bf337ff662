"""Offline preprocessing (§6) and the server-side panorama store.

The Coterie server's offline stage: run the adaptive cutoff scheme, derive
per-leaf distance thresholds, and pre-render + pre-encode panoramic far-BE
frames for reachable grid points.  Pre-rendering *every* grid point up
front is exactly what the paper does on a GPU server overnight; on this
substrate :class:`PanoramaStore` materializes frames on first request and
memoizes them, producing identical serving behaviour with bounded compute.

For experiments that only need frame *sizes* (FPS/scalability/network
tables — the cache outcome "is determined by the frame locations", §4.6),
the store supports an emulated mode backed by a calibrated
:class:`FrameSizeModel`, skipping rasterization entirely.

Performance layer (this module's driver plus ``repro.perf`` and
``repro.core.store``): :func:`preprocess_game` accepts
:class:`PreprocessOptions` selecting a worker count and a persistent
cache directory.  With ``workers > 1`` the per-leaf dist-thresh searches
and grid-point panorama render/encode jobs fan out over a
``ProcessPoolExecutor`` in fixed-size chunks; chunks are created in a
deterministic order and futures are consumed in submission order, and
every per-item computation is a pure function of its task tuple, so the
merged output is bit-identical to a serial run.  With ``cache_dir`` set,
results additionally persist in a content-addressed
:class:`~repro.core.store.PanoramaDiskCache` so repeated runs warm-start.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from .. import perf
from ..codec import EncodedFrame, FrameCodec
from ..geometry import GridPoint, Vec2
from ..render.rasterizer import Layer, RenderConfig
from ..render.splitter import eye_at, render_far_be, render_whole_be
from ..render.timing import RenderCostModel
from ..world.games import GameWorld
from .constraint import RenderBudget, measure_fi_budget
from .cutoff import CutoffMap, CutoffSchemeConfig, LeafKey, build_cutoff_map, leaf_key
from .dist_thresh import DistThreshMap, dist_thresh_payload, leaf_threshold
from .store import PanoramaDiskCache, content_digest, world_cache_key


@dataclass(frozen=True)
class StoredFrame:
    """A served panoramic frame: payload (optional) plus wire size."""

    encoded: Optional[EncodedFrame]
    decoded: Optional[np.ndarray]
    wire_bytes: int
    viewpoint: Vec2


@dataclass(frozen=True)
class FrameSizeModel:
    """Calibrated wire-size distribution for one game's panoramas."""

    mean_bytes: float
    std_bytes: float

    def __post_init__(self) -> None:
        if self.mean_bytes <= 0 or self.std_bytes < 0:
            raise ValueError("invalid size model")

    def sample(self, grid_point: GridPoint) -> int:
        """Deterministic per-grid-point size draw (hash-seeded)."""
        seed = (hash(grid_point) ^ 0x5EED) & 0x7FFFFFFF
        rng = np.random.default_rng(seed)
        size = rng.normal(self.mean_bytes, self.std_bytes)
        return int(max(1000.0, size))


class PanoramaStore:
    """Server store of pre-rendered, pre-encoded panoramic frames.

    ``kind`` selects far-BE frames (Coterie, clipped at the viewpoint's
    cutoff radius) or whole-BE frames (Furion).  With ``render_frames``
    False, a :class:`FrameSizeModel` must be supplied and only sizes are
    served.  With ``disk_cache`` set, rendered+encoded frames persist
    across processes; a disk hit reuses the stored bytes and re-decodes
    them, which is bit-identical to the render path because decoding is a
    pure function of the encoded payload.
    """

    def __init__(
        self,
        world: GameWorld,
        config: RenderConfig,
        codec: FrameCodec,
        cutoff_map: Optional[CutoffMap] = None,
        kind: str = "far",
        eye_height: float = 1.7,
        render_frames: bool = True,
        size_model: Optional[FrameSizeModel] = None,
        max_cached_frames: int = 4096,
        disk_cache: Optional[PanoramaDiskCache] = None,
    ) -> None:
        if kind not in ("far", "whole"):
            raise ValueError("kind must be 'far' or 'whole'")
        if kind == "far" and cutoff_map is None:
            raise ValueError("far-BE store requires a cutoff map")
        if not render_frames and size_model is None:
            raise ValueError("emulated store requires a size model")
        if max_cached_frames < 1:
            raise ValueError("max_cached_frames must be >= 1")
        self.world = world
        self.config = config
        self.codec = codec
        self.cutoff_map = cutoff_map
        self.kind = kind
        self.eye_height = eye_height
        self.render_frames = render_frames
        self.size_model = size_model
        self.max_cached_frames = max_cached_frames
        self.disk_cache = disk_cache
        self._memo: Dict[GridPoint, StoredFrame] = {}
        self.renders = 0

    @property
    def memo_entries(self) -> int:
        """Frames currently memoized in memory (metrics occupancy probe)."""
        return len(self._memo)

    def frame_for(self, grid_point: GridPoint) -> StoredFrame:
        """The stored frame for a grid point (memoized)."""
        cached = self._memo.get(grid_point)
        if cached is not None:
            return cached
        viewpoint = self.world.grid.to_world(grid_point)
        if not self.render_frames:
            assert self.size_model is not None
            frame = StoredFrame(
                encoded=None,
                decoded=None,
                wire_bytes=self.size_model.sample(grid_point),
                viewpoint=viewpoint,
            )
        else:
            cutoff = None
            if self.kind == "far":
                assert self.cutoff_map is not None
                cutoff = self.cutoff_map.cutoff_for(viewpoint)
            encoded = decoded = None
            if self.disk_cache is not None:
                hit = self.disk_cache.load_frame(
                    (viewpoint.x, viewpoint.y), cutoff, self.kind
                )
                if hit is not None:
                    _, encoded = hit
                    decoded = self.codec.decode(encoded)
            if encoded is None:
                layer = self._render(viewpoint, cutoff)
                encoded = self.codec.encode(layer.image)
                decoded = self.codec.decode(encoded)
                self.renders += 1
                perf.count("panorama.renders")
                if self.disk_cache is not None:
                    self.disk_cache.store_frame(
                        (viewpoint.x, viewpoint.y),
                        cutoff,
                        self.kind,
                        decoded,
                        encoded,
                    )
            frame = StoredFrame(
                encoded=encoded,
                decoded=decoded,
                wire_bytes=encoded.wire_bytes(),
                viewpoint=viewpoint,
            )
        if len(self._memo) >= self.max_cached_frames:
            self._memo.pop(next(iter(self._memo)))
        self._memo[grid_point] = frame
        return frame

    def _render(self, viewpoint: Vec2, cutoff: Optional[float] = None) -> Layer:
        eye = eye_at(self.world.scene, viewpoint, self.eye_height)
        if self.kind == "whole":
            return render_whole_be(self.world.scene, eye, self.config)
        if cutoff is None:
            assert self.cutoff_map is not None
            cutoff = self.cutoff_map.cutoff_for(viewpoint)
        return render_far_be(self.world.scene, eye, self.config, cutoff)


def _cutoff_fingerprint(cutoff_map: CutoffMap) -> str:
    """Content digest of the cutoff quadtree's leaves.

    Used to key artifacts that depend on the whole map (far-BE size
    models), not just one leaf's cutoff.
    """
    leaves = sorted(
        (leaf_key(leaf.region), leaf.payload.cutoff_radius)
        for leaf in cutoff_map.tree.leaves()
    )
    return content_digest(
        {"leaves": [[*key, radius] for key, radius in leaves]}
    )


def calibrate_size_model(
    world: GameWorld,
    config: RenderConfig,
    codec: FrameCodec,
    cutoff_map: Optional[CutoffMap],
    kind: str = "far",
    samples: int = 8,
    seed: int = 0,
    eye_height: float = 1.7,
    disk: Optional[PanoramaDiskCache] = None,
) -> FrameSizeModel:
    """Measure real encoded sizes at sampled viewpoints and fit a model."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    payload = None
    if disk is not None:
        payload = {
            "kind": kind,
            "samples": samples,
            "seed": seed,
            "cutoffs": None if cutoff_map is None else _cutoff_fingerprint(cutoff_map),
        }
        stored = disk.load_value("size_model", payload)
        if stored is not None:
            return FrameSizeModel(
                mean_bytes=float(stored["mean"]), std_bytes=float(stored["std"])
            )
    with perf.timed("size_model"):
        rng = np.random.default_rng(seed)
        sizes = []
        attempts = 0
        while len(sizes) < samples and attempts < samples * 20:
            attempts += 1
            if world.track is not None:
                # Track games: uniform rejection sampling would almost never
                # land on the thin reachable band — sample along the arc.
                arc = float(rng.uniform(0.0, world.track.length()))
                point = world.track.point_at(arc)
            else:
                point = world.bounds.sample(rng, 1)[0]
            if not world.grid.is_reachable(world.grid.snap(point)):
                continue
            eye = eye_at(world.scene, point, eye_height)
            if kind == "whole":
                layer = render_whole_be(world.scene, eye, config)
            else:
                assert cutoff_map is not None
                layer = render_far_be(
                    world.scene, eye, config, cutoff_map.cutoff_for(point)
                )
            sizes.append(codec.encode(layer.image).wire_bytes())
        if len(sizes) < 2:
            raise RuntimeError("could not sample enough reachable viewpoints")
    model = FrameSizeModel(
        mean_bytes=float(np.mean(sizes)), std_bytes=float(np.std(sizes))
    )
    if disk is not None and payload is not None:
        disk.store_value(
            "size_model",
            payload,
            {"mean": model.mean_bytes, "std": model.std_bytes},
        )
    return model


@dataclass(frozen=True)
class PreprocessOptions:
    """Execution knobs for :func:`preprocess_game`.

    Defaults reproduce the historical serial, in-memory-only behaviour.
    ``workers > 1`` fans eager stages across processes; ``cache_dir``
    persists artifacts on disk; ``eager_dist_thresh`` precomputes every
    leaf's threshold up front (otherwise they stay lazy);
    ``panorama_grid_points`` pre-renders those far-BE panoramas into the
    disk cache (requires ``cache_dir``).
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    cache_max_bytes: int = 1 << 30
    eager_dist_thresh: bool = False
    panorama_grid_points: Optional[Sequence[GridPoint]] = None
    chunk_size: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.panorama_grid_points is not None and self.cache_dir is None:
            raise ValueError(
                "eager panorama rendering requires cache_dir (frames are "
                "exchanged through the disk store, not pickled)"
            )


@dataclass
class OfflineArtifacts:
    """Everything §6's offline preprocessing produces for one game."""

    budget: RenderBudget
    cutoff_map: CutoffMap
    dist_thresh_map: DistThreshMap
    far_size_model: FrameSizeModel
    whole_size_model: FrameSizeModel
    disk_cache: Optional[PanoramaDiskCache] = None


# ----------------------------------------------------------------------
# Parallel driver plumbing.
#
# Workers are initialised once per process with everything needed to
# rebuild the (deterministic) world; tasks are small picklable tuples and
# every per-task computation is a pure function of its tuple, so results
# do not depend on which worker ran them or in what order.
# ----------------------------------------------------------------------

_WORKER: Dict[str, object] = {}


def _init_worker(
    game_name: str,
    scale: float,
    render_config: RenderConfig,
    crf: float,
    seed: int,
    k_samples: int,
    eye_height: float,
    cache_dir: Optional[str],
    cache_max_bytes: int,
    world_key: Optional[Dict[str, object]],
) -> None:
    from ..world.games import load_game

    _WORKER["world"] = load_game(game_name, scale)
    _WORKER["config"] = render_config
    _WORKER["codec"] = FrameCodec(crf)
    _WORKER["seed"] = seed
    _WORKER["k_samples"] = k_samples
    _WORKER["eye_height"] = eye_height
    _WORKER["disk"] = (
        PanoramaDiskCache(cache_dir, world_key, cache_max_bytes)
        if cache_dir is not None and world_key is not None
        else None
    )


def _compute_leaf(task: Tuple[LeafKey, float]) -> Tuple[LeafKey, float]:
    key, cutoff = task
    world: GameWorld = _WORKER["world"]  # type: ignore[assignment]
    value = leaf_threshold(
        world.scene,
        _WORKER["config"],  # type: ignore[arg-type]
        key,
        cutoff,
        seed=_WORKER["seed"],  # type: ignore[arg-type]
        k_samples=_WORKER["k_samples"],  # type: ignore[arg-type]
        eye_height=_WORKER["eye_height"],  # type: ignore[arg-type]
    )
    return key, value


def _render_panorama(task: Tuple[GridPoint, float]) -> Tuple[GridPoint, bool]:
    """Render/encode one grid point's far-BE panorama into the disk store.

    Returns (grid point, whether a render actually happened).
    """
    grid_point, cutoff = task
    world: GameWorld = _WORKER["world"]  # type: ignore[assignment]
    config: RenderConfig = _WORKER["config"]  # type: ignore[assignment]
    codec: FrameCodec = _WORKER["codec"]  # type: ignore[assignment]
    disk: PanoramaDiskCache = _WORKER["disk"]  # type: ignore[assignment]
    eye_height: float = _WORKER["eye_height"]  # type: ignore[assignment]
    viewpoint = world.grid.to_world(grid_point)
    key = (viewpoint.x, viewpoint.y)
    if disk.load_frame(key, cutoff, "far") is not None:
        return grid_point, False
    with perf.timed("panorama"):
        eye = eye_at(world.scene, viewpoint, eye_height)
        layer = render_far_be(world.scene, eye, config, cutoff)
        encoded = codec.encode(layer.image)
        decoded = codec.decode(encoded)
    disk.store_frame(key, cutoff, "far", decoded, encoded)
    perf.count("panorama.renders")
    return grid_point, True


def _dist_chunk(chunk: List[Tuple[LeafKey, float]]):
    perf.reset()
    results = [_compute_leaf(task) for task in chunk]
    return results, perf.snapshot()


def _pano_chunk(chunk: List[Tuple[GridPoint, float]]):
    perf.reset()
    results = [_render_panorama(task) for task in chunk]
    return results, perf.snapshot()


def _chunked(tasks: List, size: int) -> List[List]:
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


def _pool_context():
    """Prefer fork (instant worker start, inherited world cache)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def _fan_out(chunk_fn, tasks, options: PreprocessOptions, init_args) -> List:
    """Run per-task computations, serially or across workers.

    Parallel results are merged in chunk-submission order; combined with
    per-task purity this makes the merged list independent of scheduling.
    Worker perf snapshots are folded into the parent registry.
    """
    if not tasks:
        return []
    if options.workers == 1:
        # Same per-task functions, run inline: no snapshot/reset games with
        # the parent's perf registry, and trivially the reference ordering.
        _init_worker(*init_args)
        task_fn = _compute_leaf if chunk_fn is _dist_chunk else _render_panorama
        return [task_fn(task) for task in tasks]
    merged: List = []
    with ProcessPoolExecutor(
        max_workers=options.workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=tuple(init_args),
    ) as pool:
        futures = [
            pool.submit(chunk_fn, chunk)
            for chunk in _chunked(tasks, options.chunk_size)
        ]
        for future in futures:  # submission order, not completion order
            results, snapshot = future.result()
            merged.extend(results)
            perf.merge(snapshot)
    return merged


def preprocess_game(
    world: GameWorld,
    cost_model: RenderCostModel,
    render_config: RenderConfig,
    codec: FrameCodec,
    seed: int = 0,
    cutoff_config: Optional[CutoffSchemeConfig] = None,
    size_samples: int = 8,
    options: Optional[PreprocessOptions] = None,
) -> OfflineArtifacts:
    """Run the full offline pipeline for a game (§6 steps 1-2).

    Determines the FI budget, builds the adaptive cutoff quadtree, prepares
    the dist-thresh map, and calibrates far/whole frame-size models.  See
    :class:`PreprocessOptions` for parallel execution and disk caching;
    the default options reproduce the historical serial behaviour exactly.
    """
    opts = options if options is not None else PreprocessOptions()
    eye_height = world.spec.player.eye_height
    with perf.timed("preprocess"):
        budget = measure_fi_budget(cost_model, world.spec.fi_triangles)
        reachable = world.grid.reachable_mask if world.track is not None else None
        cutoff_map = build_cutoff_map(
            world.scene,
            cost_model,
            budget,
            config=cutoff_config,
            seed=seed,
            reachable=reachable,
        )
        disk = None
        if opts.cache_dir is not None:
            disk = PanoramaDiskCache(
                opts.cache_dir,
                world_cache_key(
                    world.name,
                    world.scale,
                    seed,
                    render_config,
                    codec.crf,
                    eye_height,
                ),
                max_bytes=opts.cache_max_bytes,
            )
        dist_map = DistThreshMap(
            scene=world.scene,
            config=render_config,
            cutoff_map=cutoff_map,
            seed=seed,
            eye_height=eye_height,
            disk=disk,
        )
        init_args = (
            world.name,
            world.scale,
            render_config,
            codec.crf,
            seed,
            dist_map.k_samples,
            eye_height,
            opts.cache_dir,
            opts.cache_max_bytes,
            None if disk is None else disk.world_key,
        )
        if opts.eager_dist_thresh:
            tasks = sorted(
                (leaf_key(leaf.region), leaf.payload.cutoff_radius)
                for leaf in cutoff_map.tree.leaves()
            )
            computed: Dict[LeafKey, float] = {}
            pending: List[Tuple[LeafKey, float]] = []
            for key, cutoff in tasks:
                if disk is not None:
                    stored = disk.load_value(
                        "dist_thresh",
                        dist_thresh_payload(
                            key, cutoff, dist_map.k_samples, seed
                        ),
                    )
                    if stored is not None:
                        computed[key] = float(stored)
                        continue
                pending.append((key, cutoff))
            cutoffs = dict(tasks)
            for key, value in _fan_out(_dist_chunk, pending, opts, init_args):
                computed[key] = value
                if disk is not None:
                    disk.store_value(
                        "dist_thresh",
                        dist_thresh_payload(
                            key, cutoffs[key], dist_map.k_samples, seed
                        ),
                        value,
                    )
            dist_map.preload(computed)
        if opts.panorama_grid_points is not None:
            pano_tasks = [
                (
                    grid_point,
                    cutoff_map.cutoff_for(world.grid.to_world(grid_point)),
                )
                for grid_point in opts.panorama_grid_points
            ]
            rendered = sum(
                1
                for _, did_render in _fan_out(
                    _pano_chunk, pano_tasks, opts, init_args
                )
                if did_render
            )
            perf.count("preprocess.panoramas_rendered", rendered)
        far_sizes = calibrate_size_model(
            world, render_config, codec, cutoff_map, kind="far",
            samples=size_samples, seed=seed + 1,
            eye_height=eye_height, disk=disk,
        )
        whole_sizes = calibrate_size_model(
            world, render_config, codec, None, kind="whole",
            samples=size_samples, seed=seed + 2,
            eye_height=eye_height, disk=disk,
        )
    return OfflineArtifacts(
        budget=budget,
        cutoff_map=cutoff_map,
        dist_thresh_map=dist_map,
        far_size_model=far_sizes,
        whole_size_model=whole_sizes,
        disk_cache=disk,
    )
