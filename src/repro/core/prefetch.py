"""The far-BE prefetcher (§5.2, Fig. 10).

Each rendering interval the client needs the far-BE frame for the *next*
grid point.  The prefetcher asks the frame cache first; only on a miss is
a request sent to the server.  Because a cached frame serves all grid
points within ``dist_thresh``, a fetched frame covers a whole run of
upcoming positions — which both cuts fetch frequency (the paper's 5.2-8.6x)
and widens the time window available for each fetch, so clients simply
fetch as soon as they start reusing a cached frame rather than
coordinating via TDMA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from ..geometry import GridPoint, Vec2, WorldGrid
from ..render.timing import RenderCostModel
from ..trace.trajectory import Trajectory
from ..world.scene import Scene
from .cache import CachedFrame, FrameCache
from .cutoff import CutoffMap, LeafKey
from .dist_thresh import DistThreshMap

#: Criterion-3 visibility floor: objects smaller than this fraction of the
#: cutoff radius (~2 px at the boundary) are ignored when comparing near-BE
#: sets.
NEAR_SIGNIFICANCE = 0.05

#: Trajectory samples whose frame geometry one disc-kernel call resolves,
#: about half a second of play at 60 Hz (DESIGN.md §6).
CHUNK_SAMPLES = 32


@dataclass(frozen=True)
class FrameGeometry:
    """What a viewpoint's frame needs from the scene: its look-ahead grid
    point and that point's world position, leaf and cutoff, the
    significant near-object ids there (criterion 3), and RT_nearBE at the
    viewpoint itself (Eq. 2's pacing; None when not asked for)."""

    viewpoint: Vec2
    grid_point: GridPoint
    position: Vec2
    leaf: LeafKey
    cutoff_radius: float
    near_ids: FrozenSet[int]
    near_be_ms: Optional[float]


@dataclass(frozen=True)
class PrefetchDecision:
    """What the prefetcher decided for one rendering interval."""

    grid_point: GridPoint
    position: Vec2
    leaf: LeafKey
    cutoff_radius: float
    near_ids: FrozenSet[int]
    cached: Optional[CachedFrame]  # hit: the frame to reuse
    dist_thresh: float
    near_be_ms: Optional[float]  # RT_nearBE at the viewpoint, if paced

    @property
    def needs_fetch(self) -> bool:
        return self.cached is None


class Prefetcher:
    """Cache-first far-BE frame acquisition for one client.

    Given the client's ``trajectory``, a frame that names its sample reads
    the sample's row of a chunk resolved ahead; given a ``cost_model``,
    the rows of :meth:`plan` carry RT_nearBE."""

    def __init__(
        self,
        scene: Scene,
        grid: WorldGrid,
        cutoff_map: CutoffMap,
        dist_thresh_map: DistThreshMap,
        cache: FrameCache,
        cost_model: Optional[RenderCostModel] = None,
        trajectory: Optional[Trajectory] = None,
    ) -> None:
        self.scene = scene
        self.grid = grid
        self.cutoff_map = cutoff_map
        self.dist_thresh_map = dist_thresh_map
        self.cache = cache
        self.cost_model = cost_model
        self.fetches = 0
        # The client's viewpoints, and the rows of the chunk of them last
        # resolved (``CHUNK_SAMPLES`` from sample ``_chunk_start`` on).
        self._viewpoints = trajectory.positions() if trajectory is not None else []
        self._chunk_start = 0
        self._chunk: List[FrameGeometry] = []
        # Congestion throttle (repro.adapt): >= 1.0 multiplier widening
        # the dist-thresh acceptance band so more cached candidates serve
        # in place of fetches.  Scaling a double by 1.0 is exact.
        self.thresh_scale = 1.0

    def geometry(self, viewpoints: Sequence[Vec2]) -> List[FrameGeometry]:
        """The frame geometry of each viewpoint, from one batched scene
        query per answer: the near set at the snapped point under its
        leaf's cutoff and, given a cost model, RT_nearBE at the viewpoint
        under that cutoff."""
        i, j, qx, qy = self.grid.snap_many(
            np.array([viewpoint.x for viewpoint in viewpoints]),
            np.array([viewpoint.y for viewpoint in viewpoints]),
        )
        grid_points = list(zip(i.astype(np.int64).tolist(), j.astype(np.int64).tolist()))
        snapped = [Vec2(x, y) for x, y in zip(qx.tolist(), qy.tolist())]
        leaves = [self.cutoff_map.leaf_for(position) for position in snapped]
        cutoffs = [cutoff for _, cutoff in leaves]
        near_sets = self.scene.near_object_ids(
            snapped, cutoffs, [NEAR_SIGNIFICANCE * cutoff for cutoff in cutoffs]
        )
        if self.cost_model is not None:
            near_ms = self.cost_model.near_be_ms(self.scene, viewpoints, cutoffs)
        else:
            near_ms = [None] * len(viewpoints)
        return [
            FrameGeometry(viewpoint, grid_point, position, leaf, cutoff, near_ids, ms)
            for viewpoint, grid_point, position, (leaf, cutoff), near_ids, ms in zip(
                viewpoints, grid_points, snapped, leaves, near_sets, near_ms
            )
        ]

    def _one(self, viewpoint: Vec2, paced: bool) -> FrameGeometry:
        """:meth:`geometry` of one viewpoint, through the scalar queries
        (a batch of one costs more in array set-up than it shares); RT_nearBE
        only when ``paced``."""
        grid_point = self.grid.snap(viewpoint)
        position = self.grid.to_world(grid_point)
        leaf, cutoff = self.cutoff_map.leaf_for(position)
        near_ids = self.scene.near_object_ids(
            position, cutoff, min_radius=NEAR_SIGNIFICANCE * cutoff
        )
        near_ms = None
        if paced and self.cost_model is not None:
            near_ms = self.cost_model.near_be_ms(self.scene, viewpoint, cutoff)
        return FrameGeometry(viewpoint, grid_point, position, leaf, cutoff, near_ids, near_ms)

    def _row(self, position: Vec2, index: Optional[int]) -> FrameGeometry:
        """Trajectory sample ``index``'s row when ``position`` is that
        sample's viewpoint (its chunk resolved on first read), else the
        one-viewpoint geometry of ``position``."""
        if index is not None:
            offset = index - self._chunk_start
            if not 0 <= offset < len(self._chunk):
                self._chunk = self.geometry(self._viewpoints[index : index + CHUNK_SAMPLES])
                self._chunk_start, offset = index, 0
            row = self._chunk[offset]
            if row.viewpoint == position:
                return row
        return self._one(position, True)

    def _resolve(self, row: FrameGeometry, lookup, **lookup_args) -> PrefetchDecision:
        """Derive ``row``'s dist-thresh and ask ``lookup`` (one of the
        cache's keyword queries) for a frame that serves it."""
        # Per frame: a chunk's worth ahead would measure leaves never shown.
        dist_thresh = (
            self.dist_thresh_map.threshold_at(row.leaf, row.cutoff_radius) * self.thresh_scale
        )
        cached = lookup(
            grid_point=row.grid_point,
            position=row.position,
            leaf=row.leaf,
            near_ids=row.near_ids,
            dist_thresh=dist_thresh,
            **lookup_args,
        )
        return PrefetchDecision(
            grid_point=row.grid_point,
            position=row.position,
            leaf=row.leaf,
            cutoff_radius=row.cutoff_radius,
            near_ids=row.near_ids,
            cached=cached,
            dist_thresh=dist_thresh,
            near_be_ms=row.near_be_ms,
        )

    def plan(
        self, position: Vec2, now_ms: float, index: Optional[int] = None
    ) -> PrefetchDecision:
        """Resolve the far-BE frame for the viewpoint at ``position``;
        ``index`` names the trajectory sample it came from, whose chunk's
        row then serves unless a pose fault moved it."""
        decision = self._resolve(self._row(position, index), self.cache.lookup, now_ms=now_ms)
        if decision.cached is None:
            self.fetches += 1
        return decision

    def plan_speculative(self, position: Vec2) -> PrefetchDecision:
        """Resolve a *forecast* viewpoint without touching lookup stats.

        The speculation path (repro.predict) plans against predicted
        poses that may be wrong; charging those probes to the cache's
        hit/miss counters or the fetch tally would corrupt the metrics
        the real frame loop reports.  Same derivation as :meth:`plan`,
        but the cache is only :meth:`~repro.core.cache.FrameCache.peek`-ed,
        ``fetches`` is left alone and no RT_nearBE is computed (nothing
        paces a forecast).  Predicted positions may fall outside the
        scene, so the target is clamped to its bounds.
        """
        return self._resolve(self._one(self.scene.bounds.clamp(position), False), self.cache.peek)

    def admit(
        self,
        decision: PrefetchDecision,
        payload,
        size_bytes: int,
        now_ms: float,
        origin_player: int = -1,
        speculative: bool = False,
        digest: int = 0,
    ) -> CachedFrame:
        """Insert a server-fetched frame for a previous decision.

        ``speculative`` tags the entry as unconfirmed forecast state and
        ``digest`` stamps its float64 oracle hash; both default to the
        plain (non-speculative) admission the clean path performs.
        """
        frame = CachedFrame(
            grid_point=decision.grid_point,
            position=decision.position,
            leaf=decision.leaf,
            near_ids=decision.near_ids,
            payload=payload,
            size_bytes=size_bytes,
            inserted_ms=now_ms,
            last_used_ms=now_ms,
            origin_player=origin_player,
            speculative=speculative,
            digest=digest,
        )
        self.cache.insert(frame)
        return frame
