"""Fleet-level admission control: Constraints 1 and 2 at datacenter scope.

:mod:`repro.session.admission` gates one session's roster — can this
*device roster* still render FI + near BE inside the frame budget
(Constraint 1) and fit the shared wireless medium (Constraint 2)?  The
fleet lifts the same two constraints one level up, where the contended
resources are the render farm's GPU slots and the serving backhaul:

* **Constraint 1 (fleet form)** — the aggregate panorama-render demand
  of every active session, *discounted by the shared store's observed
  dedup ratio*, must fit the farm's sustainable render throughput
  (``gpu_slots x 1000/render_ms``, derated by :data:`RENDER_HEADROOM`).
  This is where cross-session dedup turns into capacity: as the store's
  hit ratio climbs, each admitted session charges the budget less, so
  the same GPUs admit more sessions — the mechanism ``bench_fleet``
  measures as a sessions/sec win over isolated serving.
* **Constraint 2 (fleet form)** — the sum of every admitted session's
  per-player BE fetch streams plus FI sync fanout must fit the
  backhaul's usable capacity, evaluated with the *same*
  :func:`repro.core.constraint.satisfies_bandwidth_constraint` the
  per-session supervisor uses (client-side caching does not shrink
  downloads, so no dedup discount applies here).

Decisions are pure functions of (budget, active estimates, candidate,
miss ratio), so a fleet run's admission sequence is deterministic and
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.constraint import BandwidthBudget, satisfies_bandwidth_constraint

#: Decision reasons, in check order.
REASONS = ("admitted", "fleet-full", "constraint-1", "constraint-2")


#: The share of the farm's nominal render throughput admission spends,
#: the way :data:`~repro.core.constraint.NEAR_BE_HEADROOM` derates the
#: device frame budget: dispatch overhead, batching latency, and demand
#: jitter mean a farm admitted to 100 % of nominal would blow every
#: deadline the moment a flash crowd lands.
RENDER_HEADROOM = 0.8


@dataclass(frozen=True)
class FleetBudget:
    """The fleet's finite serving resources."""

    gpu_slots: int = 4
    render_ms: float = 30.0
    bandwidth_mbps: float = 2000.0
    max_sessions: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate every budget parameter."""
        if self.gpu_slots < 1:
            raise ValueError("gpu_slots must be >= 1")
        if self.render_ms <= 0:
            raise ValueError("render_ms must be positive")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 when set")

    @property
    def bandwidth(self) -> BandwidthBudget:
        """The backhaul as a Constraint-2 budget."""
        return BandwidthBudget(capacity_mbps=self.bandwidth_mbps)

    @property
    def usable_renders_per_s(self) -> float:
        """Sustainable farm throughput after headroom derating."""
        return self.gpu_slots * (1000.0 / self.render_ms) * RENDER_HEADROOM


@dataclass(frozen=True)
class SessionEstimate:
    """One session's forecast resource demand, pre-dedup.

    ``renders_per_s`` is the session's raw demand-point rate (unique
    grid points per second across its roster); the controller applies
    the dedup discount, not the estimator.
    """

    players: int
    renders_per_s: float
    be_kbps_per_player: float
    fi_kbps: float

    def __post_init__(self) -> None:
        """Validate the estimate's fields."""
        if self.players < 1:
            raise ValueError("players must be >= 1")
        if self.renders_per_s < 0:
            raise ValueError("renders_per_s must be non-negative")
        if self.be_kbps_per_player < 0:
            raise ValueError("be_kbps_per_player must be non-negative")
        if self.fi_kbps < 0:
            raise ValueError("fi_kbps must be non-negative")


@dataclass(frozen=True)
class FleetDecision:
    """The verdict on one candidate session, with its predicted loads."""

    admitted: bool
    #: One of :data:`REASONS`.
    reason: str
    #: Active session count if (reason: when) the candidate is admitted.
    sessions_after: int
    #: Post-discount fleet render demand including the candidate.
    predicted_renders_per_s: float
    #: ``predicted_renders_per_s`` over the usable farm throughput.
    render_utilization: float
    #: Aggregate BE + FI traffic including the candidate, in Mbps.
    predicted_mbps: float
    #: The dedup discount (expected miss ratio) the prediction used.
    miss_ratio: float


class FleetAdmissionController:
    """Evaluates candidate sessions against a :class:`FleetBudget`.

    ``miss_ratio`` is a zero-argument callable returning the current
    expected render miss ratio in (0, 1] — normally the shared store's
    :meth:`~repro.fleet.store.SharedPanoramaStore.expected_miss_ratio`.
    It is read once per evaluation so a decision is a snapshot, never a
    mid-decision moving target.
    """

    def __init__(
        self,
        budget: FleetBudget,
        miss_ratio: Callable[[], float] = lambda: 1.0,
    ) -> None:
        """Bind the budget and the live dedup-discount source."""
        self.budget = budget
        self._miss_ratio = miss_ratio
        self.evaluations = 0

    def evaluate(
        self,
        active: Sequence[SessionEstimate],
        candidate: SessionEstimate,
    ) -> FleetDecision:
        """Judge ``candidate`` given the currently active sessions.

        Checks run in :data:`REASONS` order — fleet-full, then
        Constraint 1 (render throughput), then Constraint 2 (backhaul) —
        and the first violated check names the decision's reason.
        """
        self.evaluations += 1
        sessions_after = len(active) + 1
        miss = min(1.0, max(0.0, float(self._miss_ratio())))
        roster = list(active) + [candidate]
        demand = sum(est.renders_per_s for est in roster) * miss
        usable = self.budget.usable_renders_per_s
        utilization = demand / usable if usable > 0 else float("inf")
        per_player_be = self._per_player_be(roster)
        fi_total = sum(est.fi_kbps for est in roster)
        total_mbps = (sum(per_player_be) + fi_total) / 1000.0
        if (
            self.budget.max_sessions is not None
            and sessions_after > self.budget.max_sessions
        ):
            reason = "fleet-full"
        elif demand > usable:
            reason = "constraint-1"
        elif not satisfies_bandwidth_constraint(
            per_player_be, fi_total, self.budget.bandwidth
        ):
            reason = "constraint-2"
        else:
            reason = "admitted"
        return FleetDecision(
            admitted=reason == "admitted",
            reason=reason,
            sessions_after=sessions_after,
            predicted_renders_per_s=demand,
            render_utilization=utilization,
            predicted_mbps=total_mbps,
            miss_ratio=miss,
        )

    @staticmethod
    def _per_player_be(roster: Sequence[SessionEstimate]) -> List[float]:
        """Flatten the roster into one BE estimate per co-served player."""
        streams: List[float] = []
        for est in roster:
            streams.extend([est.be_kbps_per_player] * est.players)
        return streams
