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

Every artifact here is a pure function of (world, render config, codec,
seed), and each is computed one way: lazily, where it is first asked for
(:meth:`PanoramaStore.frame_for`,
:meth:`~repro.core.dist_thresh.DistThreshMap.threshold_for`,
:func:`calibrate_size_model`).  With ``cache_dir`` set,
:func:`preprocess_game` puts a content-addressed
:class:`~repro.core.store.PanoramaDiskCache` behind those three lookups,
so a second store, session or process over the same world reads the bytes
back instead of rendering them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import perf
from ..codec import EncodedFrame, FrameCodec
from ..geometry import GridPoint, Vec2
from ..render.rasterizer import Layer, RenderConfig
from ..render.splitter import eye_at, render_far_be, render_whole_be
from ..render.timing import RenderCostModel
from ..world.games import GameWorld
from .constraint import RenderBudget, measure_fi_budget
from .cutoff import CutoffMap, CutoffSchemeConfig, build_cutoff_map, leaf_key
from .dist_thresh import DistThreshMap
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


# In-memory frames a PanoramaStore keeps before dropping the oldest.
_MAX_MEMO_FRAMES = 4096


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
        disk_cache: Optional[PanoramaDiskCache] = None,
    ) -> None:
        if kind not in ("far", "whole"):
            raise ValueError("kind must be 'far' or 'whole'")
        if kind == "far" and cutoff_map is None:
            raise ValueError("far-BE store requires a cutoff map")
        if not render_frames and size_model is None:
            raise ValueError("emulated store requires a size model")
        self.world = world
        self.config = config
        self.codec = codec
        self.cutoff_map = cutoff_map
        self.kind = kind
        self.eye_height = eye_height
        self.render_frames = render_frames
        self.size_model = size_model
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
        if len(self._memo) >= _MAX_MEMO_FRAMES:
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


@dataclass
class OfflineArtifacts:
    """Everything §6's offline preprocessing produces for one game."""

    budget: RenderBudget
    cutoff_map: CutoffMap
    dist_thresh_map: DistThreshMap
    far_size_model: FrameSizeModel
    whole_size_model: FrameSizeModel
    disk_cache: Optional[PanoramaDiskCache] = None


def preprocess_game(
    world: GameWorld,
    cost_model: RenderCostModel,
    render_config: RenderConfig,
    codec: FrameCodec,
    seed: int = 0,
    cutoff_config: Optional[CutoffSchemeConfig] = None,
    size_samples: int = 8,
    cache_dir: Optional[str] = None,
) -> OfflineArtifacts:
    """Run the full offline pipeline for a game (§6 steps 1-2).

    Determines the FI budget, builds the adaptive cutoff quadtree, prepares
    the (lazy) dist-thresh map, and calibrates far/whole frame-size models.
    ``cache_dir`` persists thresholds, size models and — through a
    :class:`PanoramaStore` given ``artifacts.disk_cache`` — panoramas
    across stores and processes; without it nothing touches the disk.
    """
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
        if cache_dir is not None:
            disk = PanoramaDiskCache(
                cache_dir,
                world_cache_key(
                    world.name,
                    world.scale,
                    seed,
                    render_config,
                    codec.crf,
                    eye_height,
                ),
            )
        dist_map = DistThreshMap(
            scene=world.scene,
            config=render_config,
            cutoff_map=cutoff_map,
            seed=seed,
            eye_height=eye_height,
            disk=disk,
        )
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
