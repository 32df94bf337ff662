"""Multi-Furion: the replicated 2-layer split-rendering architecture (§3).

Each client renders FI locally, decodes the previously prefetched
*whole-BE* panorama, prefetches the next grid point's panorama from the
server, and syncs FI through PUN — Furion's pipeline replicated N-fold.
The prefetch happens every rendering interval (a fresh BE frame per grid
point), so aggregate BE traffic grows linearly with players and the shared
medium becomes the bottleneck: ~276 Mbps per player means two players
already push the inter-frame latency past the 16.7 ms budget (Table 1).

``exact_cache`` adds Fig. 11's "Multi-Furion with cache" variant: clients
cache whole-BE frames and reuse *exact* grid-point matches — which almost
never hit, because players do not revisit exact grid points (§4.6,
Version 1).
"""

from __future__ import annotations

from ..core.cache import CachedFrame, FrameCache
from ..world.games import GameWorld
from .base import RunResult, Session, SessionConfig
from .loop import FrameOutcome, run_clients
from .whole_frame import WholeFrameStrategy

_WHOLE_LEAF = (0.0, 0.0, 0.0, 0.0)  # whole-BE frames have no leaf regions


class MultiFurionStrategy(WholeFrameStrategy):
    """Fetch the next grid point's whole-BE panorama every interval."""

    def __init__(self, session: Session, exact_cache: bool) -> None:
        super().__init__(session, calibration_seed=6)
        self.caches = [
            FrameCache(exact_only=True) if exact_cache else None
            for _ in range(session.total_slots)
        ]
        if exact_cache and session.observer is not None:
            for player_id, cache in enumerate(self.caches):
                session.observer.watch_cache(player_id, cache)

    def reset(self, slot: int) -> None:
        """A rejoiner's exact cache starts empty too."""
        super().reset(slot)
        if self.caches[slot] is not None:
            self.caches[slot].clear()

    def frame(self, player_id: int, t0: float, sample):
        """Exact-match cache lookup, else stall → transfer of the panorama."""
        session = self.session
        cache = self.caches[player_id]
        grid_point = session.world.grid.snap(sample.position)
        snapped = session.world.grid.to_world(grid_point)
        out = FrameOutcome()
        hit = None
        if cache is not None:
            hit = cache.lookup(grid_point, snapped, _WHOLE_LEAF, frozenset(), 0.0, t0)
            out.cache_hit = hit is not None
            out.cache_label = "hit" if out.cache_hit else "fetch"
        if hit is not None:
            self.last_frame_ms[player_id] = t0
        else:
            frame_bytes = self.wire_bytes(player_id, grid_point, t0)
            if frame_bytes is None:
                # Dropped: re-display the previously decoded panorama.
                out.dropped = True
                out.stale_age_ms = t0 - self.last_frame_ms[player_id]
                out.cache_label = "drop"
            else:
                stall_ms, wire_ms = yield from session.blocked(
                    player_id, self.stream(frame_bytes, t0)
                )
                out.frame_bytes = frame_bytes
                out.transfer_ms = stall_ms + wire_ms
                self.observe(player_id, frame_bytes, out.transfer_ms - stall_ms)
                self.last_frame_ms[player_id] = session.sim.now
                if cache is not None:
                    cache.insert(
                        CachedFrame(
                            grid_point=grid_point,
                            position=snapped,
                            leaf=_WHOLE_LEAF,
                            near_ids=frozenset(),
                            payload=None,
                            size_bytes=frame_bytes,
                            inserted_ms=t0,
                            last_used_ms=t0,
                            origin_player=player_id,
                        )
                    )
        self.pace_pipeline(out, t0, near_be_ms=0.0)
        return out


def run_multi_furion(
    world: GameWorld,
    n_players: int,
    config: SessionConfig,
    exact_cache: bool = False,
) -> RunResult:
    """Simulate N players under the replicated Furion architecture."""
    session = Session(world, n_players, config)
    run_clients(session, MultiFurionStrategy(session, exact_cache))
    name = "multi_furion_cache" if exact_cache else "multi_furion"
    return session.finish(name, decoding=True, cache_enabled=exact_cache)
