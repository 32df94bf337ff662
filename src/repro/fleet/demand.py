"""Per-session render-demand derivation from real movement traces.

The fleet model does not re-run the full per-frame client pipeline for
every admitted session — that is what ``fidelity="full"`` replays are
for.  Instead each session's server-side load is derived from the same
trajectory generator the single-session engine uses
(:func:`repro.trace.generate_party`): walk the party's movement at a
fixed stride, quantize every position to a *demand cell*, and keep the
first visit to each cell.  The result is the ordered stream of demand
points the session's far-BE prefetchers would fetch from the server —
which, on a client cache miss, is precisely one panorama render.

Demand cells are deliberately coarser than the 1/32 m world grid: the
client does not fetch a fresh panorama every 3 cm, it fetches one per
*dist-thresh* of movement (several metres — that is Coterie's whole
point).  ``spacing_m`` models that fetch granularity, so the demand
rate lands at the few-per-second scale Table 9 implies and two sessions
driving the same track hit the same cells.

Because trajectories are pure functions of (world, players, duration,
seed), a session's demand — and therefore every fleet-level quantity
derived from it — is deterministic, and sessions of the same game with
different seeds overlap heavily in space (the paper's §4.1 observation
that multiplayer groups travel together), which is exactly the overlap
the cross-session shared store converts into dedup hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import math

from ..geometry import GridPoint
from ..net.pun import fi_sync_kbps
from ..trace import generate_party
from ..world import GameWorld
from .admission import SessionEstimate

#: Default demand-cell edge in metres — the dist-thresh-scale spacing at
#: which a moving player needs a fresh far-BE panorama (paper §4.3 finds
#: thresholds of metres, not centimetres).
DEFAULT_SPACING_M = 2.0

#: Mean far-BE panorama size per game, in kilobytes (paper Table 8 for
#: the headline games; the study-wide median for the rest).  The fleet
#: model only needs a bandwidth-scale constant — full-fidelity replays
#: measure the real per-frame sizes.
FRAME_KB: Dict[str, float] = {
    "viking": 280.0,
    "cts": 150.0,
    "racing": 194.0,
}
DEFAULT_FRAME_KB = 200.0


@dataclass(frozen=True)
class DemandPoint:
    """One first-visit grid point: when (session-relative) and where."""

    t_offset_ms: float
    grid_point: GridPoint


@dataclass(frozen=True)
class SessionDemand:
    """A session's ordered unique demand stream plus load estimates."""

    game: str
    players: int
    duration_ms: float
    points: Tuple[DemandPoint, ...]

    @property
    def renders_per_s(self) -> float:
        """Raw (pre-dedup) demand-point rate over the session."""
        if self.duration_ms <= 0:
            return 0.0
        return len(self.points) / (self.duration_ms / 1000.0)

    def estimate(self) -> SessionEstimate:
        """The admission-control forecast this demand implies.

        BE bandwidth charges each player their share of the session's
        unique-point fetch rate at the game's mean far-frame size; FI is
        the same closed-form PUN sync fanout the per-session admission
        controller forecasts with (§4.2's ``n^2`` state exchange).
        """
        per_player_rate = self.renders_per_s / self.players
        frame_kb = FRAME_KB.get(self.game, DEFAULT_FRAME_KB)
        be_kbps = per_player_rate * frame_kb * 8.0
        return SessionEstimate(
            players=self.players,
            renders_per_s=self.renders_per_s,
            be_kbps_per_player=be_kbps,
            fi_kbps=fi_sync_kbps(self.players),
        )


def demand_cell(x: float, y: float, spacing_m: float) -> GridPoint:
    """Quantize a world position to its dist-thresh-scale demand cell."""
    return (int(math.floor(x / spacing_m)), int(math.floor(y / spacing_m)))


def session_demand(
    world: GameWorld,
    players: int,
    duration_s: float,
    seed: int,
    stride_ms: float = 50.0,
    spacing_m: float = DEFAULT_SPACING_M,
) -> SessionDemand:
    """Derive one session's demand stream from its party trajectories.

    Samples every trajectory at ``stride_ms`` (a 20 Hz prefetch planning
    cadence by default — at VR movement speeds no demand cell is skipped
    between samples), quantizes to ``spacing_m`` demand cells, and emits
    each cell at its earliest visit time across the whole party — later
    visits are the session's own client-cache hits and never reach the
    server.
    """
    if players < 1:
        raise ValueError("players must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if stride_ms <= 0:
        raise ValueError("stride_ms must be positive")
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    party = generate_party(world, players, duration_s, seed=seed)
    first_visit: Dict[GridPoint, float] = {}
    for trajectory in party:
        next_t = 0.0
        for sample in trajectory:
            if sample.t_ms + 1e-9 < next_t:
                continue
            next_t = sample.t_ms + stride_ms
            cell = demand_cell(sample.position.x, sample.position.y, spacing_m)
            earlier = first_visit.get(cell)
            if earlier is None or sample.t_ms < earlier:
                first_visit[cell] = sample.t_ms
    ordered: List[DemandPoint] = [
        DemandPoint(t_offset_ms=t, grid_point=gp)
        for gp, t in first_visit.items()
    ]
    ordered.sort(key=lambda p: (p.t_offset_ms, p.grid_point))
    return SessionDemand(
        game=world.name,
        players=players,
        duration_ms=duration_s * 1000.0,
        points=tuple(ordered),
    )


@lru_cache(maxsize=512)
def _cached_demand(
    game: str, players: int, duration_s: float, seed: int,
    stride_ms: float, spacing_m: float,
) -> SessionDemand:
    """Memoized :func:`session_demand` keyed by its scalar arguments."""
    from ..world import load_game

    return session_demand(
        load_game(game), players, duration_s, seed,
        stride_ms=stride_ms, spacing_m=spacing_m,
    )


def demand_for(
    game: str, players: int, duration_s: float, seed: int,
    stride_ms: float = 50.0, spacing_m: float = DEFAULT_SPACING_M,
) -> SessionDemand:
    """Cached demand lookup by game name (worlds are memoized too).

    Fleet runs evaluate the same prospective session repeatedly (every
    admission retry re-estimates it), so the memoization keeps demand
    derivation off the simulation's critical path.
    """
    return _cached_demand(game, players, float(duration_s), int(seed),
                          float(stride_ms), float(spacing_m))
