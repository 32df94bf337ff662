"""Cross-session panorama dedup: a fleet facade over content addressing.

Coterie's far-BE panoramas are pure functions of (world key, grid point)
— that is what lets :class:`repro.core.store.PanoramaDiskCache` persist
them across processes.  The same purity means two *sessions* of the same
game demanding the same grid point need only one render, fleet-wide.
:class:`SharedPanoramaStore` is the bookkeeping half of that argument: it
addresses every demand point with the exact same canonical-JSON SHA-256
scheme as the disk cache (via :func:`repro.core.store.content_digest`
over a :func:`repro.core.store.world_cache_key` document), tracks which
addresses the render farm has already produced, and reports the
fleet-wide hit ratio that admission control feeds back into its render
budget.

The ``shared=False`` mode namespaces every address by session id, which
makes each session's working set disjoint by construction — that is the
per-session isolated-serving comparator ``bench_fleet.py`` measures
against, with everything else (scheduler, budgets, arrivals) held equal.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from ..core.store import CACHE_SCHEMA_VERSION, content_digest
from ..geometry import GridPoint
from .demand import SPACING_M


class SharedPanoramaStore:
    """Fleet-wide rendered-panorama index with per-session accounting.

    The store never holds pixels — the fleet model cares about *which*
    renders happen, not their contents — so an entry is just its
    content address.  ``lookup`` answers "has the farm already rendered
    this demand point for anyone?"; ``commit`` records a completed
    render.  Hits and misses are counted fleet-wide and per session.
    """

    def __init__(self, shared: bool = True) -> None:
        """``shared=False`` namespaces addresses per session (no dedup)."""
        self.shared = shared
        self._worlds: Dict[str, Dict[str, Any]] = {}
        self._rendered: set = set()
        self.hits = 0
        self.misses = 0
        self.session_hits: Dict[int, int] = {}
        self.session_misses: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def register_world(self, game: str, world_key: Mapping[str, Any]) -> None:
        """Pin the world-key document every address for ``game`` embeds.

        Build ``world_key`` with :func:`repro.core.store.world_cache_key`
        so fleet addresses and disk-cache addresses agree on what
        invalidates a panorama.
        """
        self._worlds[game] = dict(world_key)

    def address(self, game: str, grid_point: GridPoint,
                session_id: int = 0) -> str:
        """The content address of one demand point's far-BE panorama."""
        try:
            world = self._worlds[game]
        except KeyError:
            raise KeyError(
                f"game {game!r} has no registered world key; "
                "call register_world first"
            ) from None
        payload: Dict[str, Any] = {
            "grid": [int(grid_point[0]), int(grid_point[1])],
            # The demand-cell edge the grid points were quantized at.
            "spacing_m": SPACING_M,
            "kind": "far",
        }
        if not self.shared:
            payload["session"] = int(session_id)
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "world": world,
            "namespace": "fleet-frame",
            "payload": payload,
        }
        return content_digest(document)

    # ------------------------------------------------------------------
    # Lookup / commit protocol
    # ------------------------------------------------------------------

    def lookup(self, session_id: int, game: str,
               grid_point: GridPoint) -> Tuple[bool, str]:
        """``(hit, address)`` for one demand point, updating counters.

        A miss means the caller must submit the address to the render
        farm and :meth:`commit` it when the render completes; concurrent
        misses on the same address are the farm's coalescing problem,
        not the store's.
        """
        address = self.address(game, grid_point, session_id)
        hit = address in self._rendered
        if hit:
            self.hits += 1
            self.session_hits[session_id] = (
                self.session_hits.get(session_id, 0) + 1
            )
        else:
            self.misses += 1
            self.session_misses[session_id] = (
                self.session_misses.get(session_id, 0) + 1
            )
        return hit, address

    def commit(self, address: str) -> None:
        """Record a completed render; later lookups of ``address`` hit."""
        self._rendered.add(address)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def lookups(self) -> int:
        """Total demand points addressed through the store."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fleet-wide dedup hit ratio (0 before any lookup)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    @property
    def rendered_count(self) -> int:
        """Distinct panoramas committed so far."""
        return len(self._rendered)

    def expected_miss_ratio(self, floor: float = 0.05) -> float:
        """The admission controller's render-demand discount.

        Before any evidence (or whenever dedup is disabled) every demand
        point is assumed to need a render — ratio 1.0.  Once the store
        has observed lookups, the cumulative miss ratio is the best
        deterministic forecast of how much of a new session's demand
        will reach the GPUs; ``floor`` keeps admission from assuming
        renders are ever entirely free.
        """
        if not self.shared or not self.lookups:
            return 1.0
        return max(floor, self.misses / self.lookups)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready counters for summaries and benchmark payloads."""
        return {
            "shared": self.shared,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 6),
            "rendered": self.rendered_count,
        }
