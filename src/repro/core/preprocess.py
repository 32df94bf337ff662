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
seed).  Set-up (:func:`preprocess_game`) builds the FI budget and the
cutoff map; panoramas, thresholds and the far-BE size model are computed
on first read and memoized in memory; whole-BE size models belong to
:class:`~repro.systems.whole_frame.WholeFrameStrategy` and to ``repro
preprocess``.  Nothing is persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from .cutoff import CutoffMap, CutoffSchemeConfig, build_cutoff_map
from .dist_thresh import DistThreshMap


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
    """Server store of pre-rendered, pre-encoded far-BE panoramic frames.

    Each frame is clipped at its viewpoint's cutoff radius and seen from
    the game's player eye height.  With a :class:`FrameSizeModel` the store
    renders nothing and serves sizes only.
    """

    def __init__(
        self,
        world: GameWorld,
        config: RenderConfig,
        codec: FrameCodec,
        cutoff_map: CutoffMap,
        size_model: Optional[FrameSizeModel] = None,
    ) -> None:
        self.world = world
        self.config = config
        self.codec = codec
        self.cutoff_map = cutoff_map
        self.size_model = size_model
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
        if self.size_model is not None:
            frame = StoredFrame(
                encoded=None,
                decoded=None,
                wire_bytes=self.size_model.sample(grid_point),
                viewpoint=viewpoint,
            )
        else:
            layer = self._render(viewpoint)
            encoded = self.codec.encode(layer.image)
            decoded = self.codec.decode(encoded)
            self.renders += 1
            perf.count("panorama.renders")
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

    def _render(self, viewpoint: Vec2) -> Layer:
        scene = self.world.scene
        eye = eye_at(scene, viewpoint, self.world.spec.player.eye_height)
        cutoff = self.cutoff_map.cutoff_for(viewpoint)
        return render_far_be(scene, eye, self.config, cutoff)


def calibrate_size_model(
    world: GameWorld,
    config: RenderConfig,
    codec: FrameCodec,
    cutoff_map: Optional[CutoffMap],
    kind: str = "far",
    samples: int = 8,
    seed: int = 0,
) -> FrameSizeModel:
    """Measure encoded sizes at sampled player-eye viewpoints; fit a model."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
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
            eye = eye_at(world.scene, point, world.spec.player.eye_height)
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
    return FrameSizeModel(
        mean_bytes=float(np.mean(sizes)), std_bytes=float(np.std(sizes))
    )


@dataclass
class OfflineArtifacts:
    """Everything §6's offline preprocessing produces for one game."""

    budget: RenderBudget
    cutoff_map: CutoffMap
    dist_thresh_map: DistThreshMap
    world: GameWorld
    render_config: RenderConfig
    codec: FrameCodec
    seed: int

    @cached_property
    def far_size_model(self) -> FrameSizeModel:
        """Far-BE wire sizes, calibrated at seed + 1 on first read."""
        return calibrate_size_model(
            self.world, self.render_config, self.codec, self.cutoff_map, seed=self.seed + 1
        )


def preprocess_game(
    world: GameWorld,
    cost_model: RenderCostModel,
    render_config: RenderConfig,
    codec: FrameCodec,
    seed: int = 0,
    cutoff_config: Optional[CutoffSchemeConfig] = None,
) -> OfflineArtifacts:
    """Run the offline pipeline's set-up for a game (§6 steps 1-2).

    Determines the FI budget and builds the adaptive cutoff quadtree; the
    thresholds and the far-BE size model are computed on first read;
    whole-BE size models belong to WholeFrameStrategy and repro preprocess.
    """
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
        dist_map = DistThreshMap(
            scene=world.scene,
            config=render_config,
            cutoff_map=cutoff_map,
            seed=seed,
            eye_height=world.spec.player.eye_height,
        )
    return OfflineArtifacts(
        budget=budget,
        cutoff_map=cutoff_map,
        dist_thresh_map=dist_map,
        world=world,
        render_config=render_config,
        codec=codec,
        seed=seed,
    )
