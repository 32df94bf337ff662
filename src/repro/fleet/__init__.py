"""Fleet-scale multi-session serving: matchmaking, shared render farm,
cross-session panorama dedup.

Single-session runs (:mod:`repro.systems`) answer "does one Coterie
session hit its QoE targets?".  This package answers the production
question one level up: how many *sessions* can a fixed pool of server
GPUs and backhaul sustain, and what join latency do players see while
the fleet is busy?  The leverage comes from the same frame-similarity
argument the paper makes within a session — far-BE panoramas are pure
functions of (world, grid point), so identical demand across sessions
needs one render, fleet-wide.

Components (one module each):

* :mod:`~repro.fleet.arrivals` — seeded Poisson / diurnal / flash-crowd
  player-arrival workloads, plus the committed trace-file format;
* :mod:`~repro.fleet.matchmaker` — per-game lobbies with
  fill-or-timeout formation and patience-bounded admission retries;
* :mod:`~repro.fleet.admission` — Constraints 1 and 2 lifted to fleet
  scope (GPU render throughput, serving backhaul);
* :mod:`~repro.fleet.store` — the cross-session dedup facade over the
  content-addressed panorama store;
* :mod:`~repro.fleet.renderfarm` — deadline-aware batched render
  scheduling on finite GPU slots with per-session fairness;
* :mod:`~repro.fleet.demand` — per-session demand streams derived from
  real party trajectories;
* :mod:`~repro.fleet.slo` — fleet serving objectives with burn-rate
  alerting;
* :mod:`~repro.fleet.simulation` — the runner tying it together under
  ``repro fleet``.
"""

from .admission import (
    REASONS,
    FleetAdmissionController,
    FleetBudget,
    FleetDecision,
    SessionEstimate,
)
from .arrivals import (
    WORKLOADS,
    ArrivalTrace,
    PlayerArrival,
    diurnal_arrivals,
    flash_crowd_arrivals,
    generate_arrivals,
    poisson_arrivals,
)
from .demand import (
    DemandPoint,
    SessionDemand,
    demand_for,
    session_demand,
)
from .matchmaker import LobbyConfig, Matchmaker, MatchmakerStats
from .renderfarm import FarmSnapshot, RenderFarm, RenderRequest
from .simulation import (
    FIDELITIES,
    FleetConfig,
    FleetResult,
    FleetSummary,
    SessionReport,
    run_fleet,
)
from .slo import FLEET_BURN_RULES, JOIN_BUCKETS_MS, fleet_slos
from .store import SharedPanoramaStore

__all__ = [
    "ArrivalTrace",
    "DemandPoint",
    "FIDELITIES",
    "FLEET_BURN_RULES",
    "FarmSnapshot",
    "FleetAdmissionController",
    "FleetBudget",
    "FleetConfig",
    "FleetDecision",
    "FleetResult",
    "FleetSummary",
    "JOIN_BUCKETS_MS",
    "LobbyConfig",
    "Matchmaker",
    "MatchmakerStats",
    "PlayerArrival",
    "REASONS",
    "RenderFarm",
    "RenderRequest",
    "SessionDemand",
    "SessionEstimate",
    "SessionReport",
    "SharedPanoramaStore",
    "WORKLOADS",
    "demand_for",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "fleet_slos",
    "generate_arrivals",
    "poisson_arrivals",
    "run_fleet",
    "session_demand",
]
