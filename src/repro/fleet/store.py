"""Cross-session panorama dedup: the fleet's index of rendered panoramas.

Coterie's far-BE panoramas are pure functions of (world, grid point),
and one fleet run serves every session of a game from the same world and
render settings.  So two *sessions* of the same game demanding the same
grid point need only one render, fleet-wide.
:class:`SharedPanoramaStore` is the bookkeeping half of that argument: it
addresses every demand point by ``(game, gx, gy)``, tracks which
addresses the render farm has already produced, and reports the
fleet-wide hit ratio that admission control feeds back into its render
budget.

The ``shared=False`` mode namespaces every address by session id, which
makes each session's working set disjoint by construction — that is the
per-session isolated-serving comparator ``bench_fleet.py`` measures
against, with everything else (scheduler, budgets, arrivals) held equal.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..geometry import GridPoint

#: A demand point's panorama address: ``(game, gx, gy)``, plus the
#: session id when dedup is off.
Address = Tuple[Any, ...]


class SharedPanoramaStore:
    """Fleet-wide rendered-panorama index with per-session accounting.

    The store never holds pixels — the fleet model cares about *which*
    renders happen, not their contents — so an entry is just its
    address.  ``lookup`` answers "has the farm already rendered
    this demand point for anyone?"; ``commit`` records a completed
    render.  Hits and misses are counted fleet-wide and per session.
    """

    def __init__(self, shared: bool = True) -> None:
        """``shared=False`` namespaces addresses per session (no dedup)."""
        self.shared = shared
        self._rendered: set = set()
        self.hits = 0
        self.misses = 0
        self.session_hits: Dict[int, int] = {}
        self.session_misses: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def address(self, game: str, grid_point: GridPoint,
                session_id: int = 0) -> Address:
        """The address of one demand point's far-BE panorama."""
        gx, gy = int(grid_point[0]), int(grid_point[1])
        if self.shared:
            return (game, gx, gy)
        return (game, gx, gy, int(session_id))

    # ------------------------------------------------------------------
    # Lookup / commit protocol
    # ------------------------------------------------------------------

    def lookup(self, session_id: int, game: str,
               grid_point: GridPoint) -> Tuple[bool, Address]:
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

    def commit(self, address: Address) -> None:
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
