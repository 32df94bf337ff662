"""The far-BE frame cache (§5.3, Tables 4-6).

Each Coterie client caches the far-BE frames it prefetched.  A lookup for
grid point *k* returns a cached frame as a hit when three criteria hold:

1. the cached frame's grid point is within the leaf's ``dist_thresh`` of
   *k* (similarity, derived offline per leaf region);
2. both points lie in the same quadtree leaf region (different regions may
   use different cutoff radii, which would open a near/far gap);
3. the cached frame's near-BE object set equals the one at *k* (otherwise
   an object could fall in neither the rendered near BE nor the cached far
   BE and go missing from the merged frame).

Of all candidates passing the criteria the *closest* one is returned.
Replacement is LRU (temporal locality) or FLF — furthest location first
(spatial locality); the paper finds both effective because the two
localities coincide in player movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional

from ..geometry import GridPoint, Vec2
from .cutoff import LeafKey

if TYPE_CHECKING:
    from ..telemetry import SpanTracer

LRU = "lru"
FLF = "flf"


@dataclass
class CachedFrame:
    """A cached far-BE frame plus the metadata lookups need."""

    grid_point: GridPoint
    position: Vec2
    leaf: LeafKey
    near_ids: FrozenSet[int]
    payload: Any  # EncodedFrame / rendered Layer / None for emulation
    size_bytes: int
    inserted_ms: float
    last_used_ms: float
    origin_player: int = -1  # who prefetched it (inter-player experiments)
    # Speculation metadata (repro.predict).  A speculative entry was
    # prefetched on a pose forecast and must be validated against the
    # float64 oracle digest before the display path may trust it;
    # ``digest`` carries the oracle hash stamped at admission time.
    speculative: bool = False
    digest: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")


@dataclass
class CacheStats:
    """Lookup / replacement / speculation counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    exact_hits: int = 0
    # Speculation lifecycle (all zero unless prediction is enabled).
    speculative_inserts: int = 0
    speculative_confirms: int = 0
    speculative_discards: int = 0
    speculative_expired: int = 0

    @property
    def lookups(self) -> int:
        """Total similarity lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache (0.0 when none ran)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class FrameCache:
    """In-memory far-BE frame cache with similarity lookup.

    ``capacity_bytes`` bounds total payload size (phone memory is limited,
    e.g. 4 GB on Pixel 2); ``policy`` selects the replacement strategy.
    ``exact_only`` restricts lookups to exact grid-point matches (cache
    Versions 1/2 of Table 4).
    """

    def __init__(
        self,
        capacity_bytes: int = 512 * 1024 * 1024,
        policy: str = LRU,
        exact_only: bool = False,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if policy not in (LRU, FLF):
            raise ValueError(f"unknown policy {policy!r}; use 'lru' or 'flf'")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.exact_only = exact_only
        self.stats = CacheStats()
        self._frames: Dict[GridPoint, CachedFrame] = {}
        self._bytes = 0
        # Telemetry hooks (assigned by the session observer when tracing):
        # every lookup / stale-fallback emits an instant on the owner's
        # cache lane.  None (the default) costs one branch per lookup.
        self.tracer: Optional[SpanTracer] = None
        self.owner = -1
        # Resident unconfirmed speculative entries.  Zero on every
        # non-predicting session, which keeps the speculative filters
        # below completely off the clean code paths (bit-identity).
        self._spec_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def frames(self) -> List[CachedFrame]:
        """Snapshot of all resident frames."""
        return list(self._frames.values())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(
        self,
        grid_point: GridPoint,
        position: Vec2,
        leaf: LeafKey,
        near_ids: FrozenSet[int],
        dist_thresh: float,
        now_ms: float,
    ) -> Optional[CachedFrame]:
        """Find a reusable frame for ``grid_point`` (§5.3 lookup algorithm).

        Records a hit or miss in :attr:`stats`; a hit refreshes the entry's
        LRU timestamp.
        """
        if dist_thresh < 0:
            raise ValueError("dist_thresh must be non-negative")

        exact = self._frames.get(grid_point)
        if exact is not None:
            exact.last_used_ms = now_ms
            self.stats.hits += 1
            self.stats.exact_hits += 1
            self._trace_lookup("exact_hit", now_ms)
            return exact
        if self.exact_only:
            self.stats.misses += 1
            self._trace_lookup("miss", now_ms)
            return None

        best = self._scan(position, leaf, near_ids, dist_thresh)
        if best is None:
            self.stats.misses += 1
            self._trace_lookup("miss", now_ms)
            return None
        best.last_used_ms = now_ms
        self.stats.hits += 1
        self._trace_lookup("similar_hit", now_ms)
        return best

    def _scan(
        self,
        position: Vec2,
        leaf: LeafKey,
        near_ids: FrozenSet[int],
        dist_thresh: float,
    ) -> Optional[CachedFrame]:
        """The §5.3 candidate loop: closest frame passing all three criteria."""
        best: Optional[CachedFrame] = None
        best_distance = float("inf")
        for frame in self._frames.values():
            distance = frame.position.distance_to(position)
            if distance > dist_thresh:
                continue  # criterion 1
            if frame.leaf != leaf:
                continue  # criterion 2
            if frame.near_ids != near_ids:
                continue  # criterion 3
            if distance < best_distance:
                best = frame
                best_distance = distance
        return best

    def _trace_lookup(self, outcome: str, now_ms: float) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "cache.lookup", self.owner, "cache", now_ms, cat="cache",
                args={"outcome": outcome, "entries": len(self._frames),
                      "bytes": self._bytes},
            )

    def nearest(
        self, position: Vec2, now_ms: float = 0.0
    ) -> Optional[CachedFrame]:
        """Closest resident frame regardless of the hit criteria.

        The stale-frame fallback: when a prefetch misses its deadline the
        client would rather display the nearest cached far-BE panorama
        than stall the display — frame similarity (§4.6) keeps a nearby
        stale frame perceptually close.  Not counted as a hit or miss and
        does not refresh LRU state; the caller records it as degradation.
        ``now_ms`` only stamps the telemetry instant.

        Unconfirmed speculative entries never serve as stale fallbacks —
        displaying unvalidated speculative state is exactly what the
        rollback discipline forbids — so when any are resident the scan
        restricts itself to confirmed frames.
        """
        if self._spec_count:
            return self._nearest_confirmed(position, now_ms)
        if not self._frames:
            if self.tracer is not None:
                self.tracer.instant(
                    "cache.nearest", self.owner, "cache", now_ms, cat="cache",
                    args={"outcome": "empty", "entries": 0},
                )
            return None
        best = min(
            self._frames.values(),
            key=lambda f: f.position.distance_to(position),
        )
        if self.tracer is not None:
            self.tracer.instant(
                "cache.nearest", self.owner, "cache", now_ms, cat="cache",
                args={"outcome": "stale",
                      "age_ms": round(now_ms - best.inserted_ms, 4),
                      "entries": len(self._frames)},
            )
        return best

    def _nearest_confirmed(
        self, position: Vec2, now_ms: float
    ) -> Optional[CachedFrame]:
        """Stale-fallback scan over confirmed (non-speculative) frames.

        Only runs while unconfirmed speculative entries are resident, so
        the plain :meth:`nearest` path stays untouched for non-predicting
        sessions.
        """
        candidates = [f for f in self._frames.values() if not f.speculative]
        if not candidates:
            if self.tracer is not None:
                self.tracer.instant(
                    "cache.nearest", self.owner, "cache", now_ms, cat="cache",
                    args={"outcome": "empty", "entries": len(self._frames)},
                )
            return None
        best = min(candidates, key=lambda f: f.position.distance_to(position))
        if self.tracer is not None:
            self.tracer.instant(
                "cache.nearest", self.owner, "cache", now_ms, cat="cache",
                args={"outcome": "stale",
                      "age_ms": round(now_ms - best.inserted_ms, 4),
                      "entries": len(self._frames)},
            )
        return best

    # ------------------------------------------------------------------
    # Speculation (repro.predict)
    # ------------------------------------------------------------------

    def peek(
        self,
        grid_point: GridPoint,
        position: Vec2,
        leaf: LeafKey,
        near_ids: FrozenSet[int],
        dist_thresh: float,
    ) -> Optional[CachedFrame]:
        """A stats-free, LRU-free :meth:`lookup`.

        Speculative planning (and resync probing) must not skew the hit
        ratio or refresh recency, so this answers the same three-criteria
        question as :meth:`lookup` without recording anything.
        """
        if dist_thresh < 0:
            raise ValueError("dist_thresh must be non-negative")
        exact = self._frames.get(grid_point)
        if exact is not None:
            return exact
        if self.exact_only:
            return None
        return self._scan(position, leaf, near_ids, dist_thresh)

    def confirm(self, frame: CachedFrame) -> None:
        """Promote a validated speculative entry to a confirmed one."""
        if frame.speculative:
            frame.speculative = False
            self._spec_count -= 1
            self.stats.speculative_confirms += 1

    def discard(self, frame: CachedFrame) -> bool:
        """Drop one entry (rollback of corrupt/mispredicted speculation).

        Returns True when the frame was resident and removed.
        """
        resident = self._frames.get(frame.grid_point)
        if resident is not frame:
            return False
        del self._frames[frame.grid_point]
        self._bytes -= frame.size_bytes
        if frame.speculative:
            self._spec_count -= 1
            self.stats.speculative_discards += 1
        return True

    def expire_speculative(self, now_ms: float, ttl_ms: float) -> int:
        """Drop unconfirmed speculative entries older than ``ttl_ms``.

        A speculative frame no lookup ever confirmed was a misprediction;
        letting it linger would waste capacity and (worse) leave
        unvalidated state resident forever.  Returns how many expired.
        """
        if self._spec_count == 0:
            return 0
        stale = [
            f for f in self._frames.values()
            if f.speculative and now_ms - f.inserted_ms > ttl_ms
        ]
        for frame in stale:
            del self._frames[frame.grid_point]
            self._bytes -= frame.size_bytes
            self._spec_count -= 1
            self.stats.speculative_expired += 1
        return len(stale)

    def drop_speculative(self) -> int:
        """Discard every unconfirmed speculative entry (resync repair)."""
        if self._spec_count == 0:
            return 0
        doomed = [f for f in self._frames.values() if f.speculative]
        for frame in doomed:
            del self._frames[frame.grid_point]
            self._bytes -= frame.size_bytes
            self._spec_count -= 1
            self.stats.speculative_discards += 1
        return len(doomed)

    @property
    def speculative_count(self) -> int:
        """Resident unconfirmed speculative entries."""
        return self._spec_count

    # ------------------------------------------------------------------
    # Insertion and replacement
    # ------------------------------------------------------------------

    def insert(self, frame: CachedFrame) -> None:
        """Insert (or replace) a frame, evicting per policy if needed."""
        if frame.size_bytes > self.capacity_bytes:
            raise ValueError("frame larger than the whole cache")
        existing = self._frames.get(frame.grid_point)
        if existing is not None:
            self._bytes -= existing.size_bytes
            if existing.speculative:
                self._spec_count -= 1
        self._frames[frame.grid_point] = frame
        self._bytes += frame.size_bytes
        if frame.speculative:
            self._spec_count += 1
            self.stats.speculative_inserts += 1
        self._evict_if_needed(player_position=frame.position)

    def _evict_if_needed(self, player_position: Vec2) -> None:
        while self._bytes > self.capacity_bytes and self._frames:
            victim = self._pick_victim(player_position)
            del self._frames[victim.grid_point]
            self._bytes -= victim.size_bytes
            if victim.speculative:
                self._spec_count -= 1
            self.stats.evictions += 1

    def _pick_victim(self, player_position: Vec2) -> CachedFrame:
        frames = self._frames.values()
        if self.policy == LRU:
            return min(frames, key=lambda f: f.last_used_ms)
        # FLF: evict the frame furthest from the player's current position.
        return max(frames, key=lambda f: f.position.distance_to(player_position))

    def clear(self) -> None:
        """Drop every cached frame (stats are kept)."""
        self._frames.clear()
        self._bytes = 0
        self._spec_count = 0
