"""The matchmaker: per-game lobbies feeding fleet admission control.

Players arrive one at a time (an :class:`~repro.fleet.arrivals
.ArrivalTrace` scheduled onto the simulator); the matchmaker holds them
in a per-game lobby until either the lobby reaches ``session_size`` or
its oldest member has waited ``max_wait_ms`` and at least
``min_session_size`` players are present — the classic
fill-or-timeout lobby.  Every formed group is then judged by the
:class:`~repro.fleet.admission.FleetAdmissionController`; a rejected
group does not disband immediately but re-applies every ``retry_ms``
until its oldest member has waited ``patience_ms`` in total, modelling
players who tolerate a short queue but quit on a long one.

All state transitions happen inside simulator events, so the full
matchmaking history — formations, retries, rejections, per-player join
latency — is a deterministic function of (trace, config, admission
state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import Simulator
from ..telemetry import MetricsHub
from .admission import FleetAdmissionController, FleetDecision, SessionEstimate
from .arrivals import ArrivalTrace


@dataclass(frozen=True)
class LobbyConfig:
    """Matchmaking knobs."""

    session_size: int = 4
    min_session_size: int = 2
    max_wait_ms: float = 1500.0
    retry_ms: float = 250.0
    patience_ms: float = 4000.0

    def __post_init__(self) -> None:
        """Validate the lobby parameters."""
        if self.session_size < 1:
            raise ValueError("session_size must be >= 1")
        if not 1 <= self.min_session_size <= self.session_size:
            raise ValueError(
                "min_session_size must be in [1, session_size]"
            )
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.retry_ms <= 0:
            raise ValueError("retry_ms must be positive")
        if self.patience_ms < self.max_wait_ms:
            raise ValueError("patience_ms must be >= max_wait_ms")


@dataclass
class MatchmakerStats:
    """Deterministic matchmaking tallies for the fleet summary."""

    players_arrived: int = 0
    players_matched: int = 0
    players_rejected: int = 0
    sessions_formed: int = 0
    sessions_admitted: int = 0
    sessions_rejected: int = 0
    admission_retries: int = 0
    rejects_by_reason: Dict[str, int] = field(default_factory=dict)


class Matchmaker:
    """Groups an arrival stream into admitted sessions.

    Collaborators are injected as callables so the matchmaker stays a
    pure scheduling component:

    * ``estimate_for(game, n_players)`` — the admission forecast for a
      prospective session (the runner derives it from trajectory
      demand);
    * ``launch(game, member_arrival_ts, decision)`` — start an admitted
      session; the runner registers its estimate as active and spawns
      its serving process;
    * ``active_estimates()`` — the estimates of every currently active
      session, in a deterministic order.
    """

    def __init__(
        self,
        sim: Simulator,
        config: LobbyConfig,
        controller: FleetAdmissionController,
        estimate_for: Callable[[str, int], SessionEstimate],
        launch: Callable[[str, Tuple[float, ...], FleetDecision], None],
        active_estimates: Callable[[], Sequence[SessionEstimate]],
        metrics: Optional[MetricsHub] = None,
    ) -> None:
        """Wire the matchmaker to its simulator and collaborators."""
        self.sim = sim
        self.config = config
        self.controller = controller
        self.estimate_for = estimate_for
        self.launch = launch
        self.active_estimates = active_estimates
        self._lobbies: Dict[str, List[float]] = {}
        self.stats = MatchmakerStats()
        self._formed_counter = None
        self._rejected_counter = None
        self._lobby_gauge = None
        if metrics is not None:
            self._formed_counter = metrics.counter("fleet_sessions_formed_total")
            self._rejected_counter = metrics.counter(
                "fleet_sessions_rejected_total"
            )
            lobby_gauge = metrics.gauge("fleet_lobby_waiting")
            metrics.register_probe(
                lambda: lobby_gauge.set(
                    float(sum(len(v) for v in self._lobbies.values()))
                )
            )

    # ------------------------------------------------------------------
    # Arrival intake
    # ------------------------------------------------------------------

    def feed(self, trace: ArrivalTrace) -> None:
        """Schedule every arrival in ``trace`` onto the simulator."""
        for arrival in trace:
            delay = arrival.t_ms - self.sim.now
            if delay < 0:
                raise ValueError(
                    f"arrival at {arrival.t_ms} ms is in the past "
                    f"(sim now {self.sim.now} ms)"
                )
            self.sim.schedule(
                delay, lambda game=arrival.game: self._arrive(game)
            )

    def waiting(self) -> int:
        """Players currently parked in lobbies (unmatched)."""
        return sum(len(members) for members in self._lobbies.values())

    def _arrive(self, game: str) -> None:
        """One player lands in ``game``'s lobby."""
        self.stats.players_arrived += 1
        lobby = self._lobbies.setdefault(game, [])
        lobby.append(self.sim.now)
        if len(lobby) >= self.config.session_size:
            members = tuple(lobby[: self.config.session_size])
            del lobby[: self.config.session_size]
            self._form(game, members)
        elif self.config.max_wait_ms > 0:
            self.sim.schedule(
                self.config.max_wait_ms, lambda: self._wait_check(game)
            )

    def _wait_check(self, game: str) -> None:
        """Fire a timeout formation if the oldest member waited enough."""
        lobby = self._lobbies.get(game, [])
        if not lobby:
            return
        waited = self.sim.now - lobby[0]
        if waited + 1e-9 < self.config.max_wait_ms:
            return
        if len(lobby) < self.config.min_session_size:
            return
        count = min(len(lobby), self.config.session_size)
        members = tuple(lobby[:count])
        del lobby[:count]
        self._form(game, members)

    # ------------------------------------------------------------------
    # Formation and admission
    # ------------------------------------------------------------------

    def _form(self, game: str, members: Tuple[float, ...]) -> None:
        """A group leaves the lobby and faces admission for the first time."""
        self.stats.sessions_formed += 1
        if self._formed_counter is not None:
            self._formed_counter.inc()
        self._apply(game, members)

    def _apply(self, game: str, members: Tuple[float, ...]) -> None:
        """One admission attempt; retries reschedule themselves."""
        estimate = self.estimate_for(game, len(members))
        decision = self.controller.evaluate(
            list(self.active_estimates()), estimate
        )
        if decision.admitted:
            self.stats.sessions_admitted += 1
            self.stats.players_matched += len(members)
            self.launch(game, members, decision)
            return
        reason = decision.reason
        oldest_wait = self.sim.now - members[0]
        if oldest_wait + self.config.retry_ms <= self.config.patience_ms:
            self.stats.admission_retries += 1
            self.sim.schedule(
                self.config.retry_ms, lambda: self._apply(game, members)
            )
            return
        self.stats.sessions_rejected += 1
        self.stats.players_rejected += len(members)
        self.stats.rejects_by_reason[reason] = (
            self.stats.rejects_by_reason.get(reason, 0) + 1
        )
        if self._rejected_counter is not None:
            self._rejected_counter.inc()
