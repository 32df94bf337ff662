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
from typing import FrozenSet, Optional

from ..geometry import GridPoint, Vec2, WorldGrid
from ..world.scene import Scene
from .cache import CachedFrame, FrameCache
from .cutoff import CutoffMap, LeafKey
from .dist_thresh import DistThreshMap


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

    @property
    def needs_fetch(self) -> bool:
        return self.cached is None


class Prefetcher:
    """Cache-first far-BE frame acquisition for one client."""

    def __init__(
        self,
        scene: Scene,
        grid: WorldGrid,
        cutoff_map: CutoffMap,
        dist_thresh_map: DistThreshMap,
        cache: FrameCache,
        lookahead_m: float = 0.0,
        near_significance: float = 0.05,
    ) -> None:
        if lookahead_m < 0:
            raise ValueError("lookahead_m must be non-negative")
        if near_significance < 0:
            raise ValueError("near_significance must be non-negative")
        self.scene = scene
        self.grid = grid
        self.cutoff_map = cutoff_map
        self.dist_thresh_map = dist_thresh_map
        self.cache = cache
        self.lookahead_m = lookahead_m
        # Criterion-3 visibility floor: objects smaller than this fraction
        # of the cutoff radius (~2 px at the boundary) are ignored when
        # comparing near-BE sets.
        self.near_significance = near_significance
        self.fetches = 0
        # Congestion throttle (repro.adapt): >= 1.0 multiplier widening
        # the dist-thresh acceptance band so more cached candidates serve
        # in place of fetches.  Exactly 1.0 leaves the clean lookup path
        # untouched (the scale is not even applied).
        self.thresh_scale = 1.0

    def _resolve(
        self, position: Vec2, heading: float, lookup, **lookup_args
    ) -> PrefetchDecision:
        """Derive grid point, leaf, cutoff, near set and dist-thresh for the
        look-ahead target of ``position`` and ask ``lookup`` (one of the
        cache's keyword queries) for a frame that serves it."""
        target = position
        if self.lookahead_m > 0:
            target = self.scene.bounds.clamp(
                position + Vec2.from_angle(heading, self.lookahead_m)
            )
        grid_point = self.grid.snap(target)
        snapped = self.grid.to_world(grid_point)
        leaf, cutoff = self.cutoff_map.leaf_for(snapped)
        near_ids = self.scene.near_object_ids(
            snapped, cutoff, min_radius=self.near_significance * cutoff
        )
        dist_thresh = self.dist_thresh_map.threshold_for(snapped)
        if self.thresh_scale != 1.0:
            dist_thresh = dist_thresh * self.thresh_scale
        cached = lookup(
            grid_point=grid_point,
            position=snapped,
            leaf=leaf,
            near_ids=near_ids,
            dist_thresh=dist_thresh,
            **lookup_args,
        )
        return PrefetchDecision(
            grid_point=grid_point,
            position=snapped,
            leaf=leaf,
            cutoff_radius=cutoff,
            near_ids=near_ids,
            cached=cached,
            dist_thresh=dist_thresh,
        )

    def plan(
        self,
        position: Vec2,
        heading: float,
        now_ms: float,
    ) -> PrefetchDecision:
        """Resolve the far-BE frame for the (predicted) next viewpoint.

        ``lookahead_m`` projects the request ahead along the movement
        direction so the transfer completes before arrival (Fig. 10's
        enlarged prefetching window).
        """
        decision = self._resolve(
            position, heading, self.cache.lookup, now_ms=now_ms
        )
        if decision.cached is None:
            self.fetches += 1
        return decision

    def plan_speculative(
        self,
        position: Vec2,
        heading: float,
        now_ms: float,
    ) -> PrefetchDecision:
        """Resolve a *forecast* viewpoint without touching lookup stats.

        The speculation path (repro.predict) plans against predicted
        poses that may be wrong; charging those probes to the cache's
        hit/miss counters or the fetch tally would corrupt the metrics
        the real frame loop reports.  Same derivation as :meth:`plan`,
        but the cache is only :meth:`~repro.core.cache.FrameCache.peek`-ed
        and ``fetches`` is left alone.  Predicted positions may fall
        outside the scene, so the target is clamped to its bounds.
        """
        return self._resolve(
            self.scene.bounds.clamp(position), heading, self.cache.peek
        )

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
