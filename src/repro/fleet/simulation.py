"""The fleet runner: arrivals -> matchmaker -> admission -> render farm.

One :func:`run_fleet` call wires the fleet components onto a single
discrete-event simulator and drains it:

1. the arrival trace (given, or generated from the configured workload)
   schedules one matchmaker event per player;
2. the :class:`~repro.fleet.matchmaker.Matchmaker` forms groups and the
   :class:`~repro.fleet.admission.FleetAdmissionController` judges them
   against the fleet budget, discounting render demand by the shared
   store's live dedup ratio;
3. every admitted session becomes a serving process: its warm-up demand
   points must clear the :class:`~repro.fleet.renderfarm.RenderFarm`
   before the session goes ACTIVE (that span, from each player's
   arrival, is the join latency), after which the remaining demand
   stream replays at trace pace;
4. the run ends when the event queue drains — every session completed
   or rejected — and the tallies freeze into a :class:`FleetSummary`
   whose equality is the fleet's bit-identity surface.

Two fidelities share this control plane.  ``"model"`` (the default)
serves sessions from their derived demand streams only — cheap enough
for hundreds of sessions.  ``"full"`` additionally replays every
admitted session through the real single-session engine
(:func:`repro.systems.run_system`) with its own seed; session 0 uses the
fleet seed itself, which pins a 1-session fleet run bit-identical to the
equivalent ``repro run``.  The fleet layer never touches the
single-session path: a plain ``repro run`` constructs no fleet objects
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.store import world_cache_key
from ..metrics.stats import percentile
from ..sim import Simulator, all_of
from ..systems import SYSTEMS, RunResult, SessionConfig, run_system
from ..telemetry import MetricsHub
from ..trace import FRAME_MS
from ..world import ALL_GAMES, load_game
from .admission import FleetAdmissionController, FleetBudget, FleetDecision, SessionEstimate
from .arrivals import WORKLOADS, ArrivalTrace, generate_arrivals
from .demand import SessionDemand, demand_for
from .matchmaker import LobbyConfig, Matchmaker
from .renderfarm import FarmSnapshot, RenderFarm
from .slo import JOIN_BUCKETS_MS
from .store import SharedPanoramaStore

#: Serving fidelities: demand-stream model vs full per-session replay.
FIDELITIES = ("model", "full")

#: Preprocessing seed embedded in fleet world keys — matches the
#: :func:`repro.systems.prepare_artifacts` default so fleet addresses
#: agree with the offline pipeline's disk-cache addresses.
_WORLD_KEY_SEED = 3


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet run depends on (all defaults deterministic).

    ``arrivals`` overrides the generated workload when given — that is
    how CI replays a committed trace file.  ``shared=False`` disables
    both cross-session dedup and cross-session batching, turning the
    fleet into per-session isolated serving at the same GPU budget (the
    benchmark comparator).
    """

    workload: str = "poisson"
    rate_per_s: float = 2.0
    duration_s: float = 30.0
    seed: int = 7
    games: Tuple[str, ...] = ("racing",)
    arrivals: Optional[ArrivalTrace] = None
    lobby: LobbyConfig = field(default_factory=LobbyConfig)
    budget: FleetBudget = field(default_factory=FleetBudget)
    session_duration_s: float = 10.0
    stride_ms: float = 50.0
    spacing_m: float = 2.0
    warmup_points: int = 4
    batch_max: int = 8
    dispatch_overhead_ms: float = 8.0
    deadline_ms: float = 250.0
    shared: bool = True
    fidelity: str = "model"
    system: str = "coterie"

    def __post_init__(self) -> None:
        """Validate the run parameters."""
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; known: {WORKLOADS}"
            )
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.games:
            raise ValueError("need at least one game")
        if self.session_duration_s <= 0:
            raise ValueError("session_duration_s must be positive")
        if self.session_duration_s * 1000.0 < FRAME_MS:
            raise ValueError(
                "session_duration_s must be at least one frame (1/60 s), "
                f"got {self.session_duration_s}"
            )
        if self.stride_ms <= 0:
            raise ValueError("stride_ms must be positive")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        if self.warmup_points < 0:
            raise ValueError("warmup_points must be non-negative")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.dispatch_overhead_ms < 0:
            raise ValueError("dispatch_overhead_ms must be non-negative")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; known: {FIDELITIES}"
            )
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; known: {SYSTEMS}"
            )

    def resolve_arrivals(self) -> ArrivalTrace:
        """The run's arrival trace: explicit, else generated and seeded."""
        if self.arrivals is not None:
            return self.arrivals
        return generate_arrivals(
            self.workload, self.rate_per_s, self.duration_s, self.seed,
            self.games,
        )


@dataclass(frozen=True)
class SessionReport:
    """One admitted session's deterministic serving record."""

    session_id: int
    game: str
    players: int
    admitted_ms: float
    active_ms: float
    end_ms: float
    join_ms: Tuple[float, ...]
    demand_points: int
    store_hits: int
    farm_renders: int


@dataclass(frozen=True)
class FleetSummary:
    """The fleet run's full determinism surface.

    Two runs of the same :class:`FleetConfig` must produce ``==``
    summaries, bit for bit — the fleet determinism tests and the
    ``--verify-determinism`` CLI leg compare exactly this object.
    """

    games: Tuple[str, ...]
    arrivals: int
    horizon_ms: float
    makespan_ms: float
    players_arrived: int
    players_matched: int
    players_rejected: int
    players_unmatched: int
    sessions_formed: int
    sessions_admitted: int
    sessions_rejected: int
    admission_retries: int
    rejects_by_reason: Tuple[Tuple[str, int], ...]
    sessions_completed: int
    sessions_per_s: float
    join_count: int
    join_mean_ms: float
    join_p50_ms: float
    join_p99_ms: float
    farm: FarmSnapshot
    store_lookups: int
    store_hits: int
    store_misses: int
    dedup_ratio: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested form for benchmark payloads."""
        return {
            "games": list(self.games),
            "arrivals": self.arrivals,
            "horizon_ms": round(self.horizon_ms, 6),
            "makespan_ms": round(self.makespan_ms, 6),
            "players": {
                "arrived": self.players_arrived,
                "matched": self.players_matched,
                "rejected": self.players_rejected,
                "unmatched": self.players_unmatched,
            },
            "sessions": {
                "formed": self.sessions_formed,
                "admitted": self.sessions_admitted,
                "rejected": self.sessions_rejected,
                "retries": self.admission_retries,
                "completed": self.sessions_completed,
                "rejects_by_reason": dict(self.rejects_by_reason),
            },
            "sessions_per_s": round(self.sessions_per_s, 6),
            "join_ms": {
                "count": self.join_count,
                "mean": round(self.join_mean_ms, 6),
                "p50": round(self.join_p50_ms, 6),
                "p99": round(self.join_p99_ms, 6),
            },
            "farm": self.farm.to_dict(),
            "store": {
                "lookups": self.store_lookups,
                "hits": self.store_hits,
                "misses": self.store_misses,
                "hit_ratio": round(self.dedup_ratio, 6),
            },
        }


@dataclass(frozen=True)
class FleetResult:
    """A fleet run's outputs: summary, per-session records, replays."""

    summary: FleetSummary
    sessions: Tuple[SessionReport, ...]
    #: Full-fidelity per-session :class:`~repro.systems.RunResult`
    #: replays, in session-id order (empty under the model fidelity).
    session_runs: Tuple[RunResult, ...]


class _FleetRun:
    """Mutable state of one in-flight fleet simulation."""

    def __init__(self, config: FleetConfig, trace: ArrivalTrace,
                 metrics: Optional[MetricsHub]) -> None:
        """Build the component graph for one run."""
        self.config = config
        self.trace = trace
        self.sim = Simulator(metrics=metrics)
        self.store = SharedPanoramaStore(
            shared=config.shared, spacing_m=config.spacing_m
        )
        self.farm = RenderFarm(
            self.sim,
            gpu_slots=config.budget.gpu_slots,
            render_ms=config.budget.render_ms,
            dispatch_overhead_ms=config.dispatch_overhead_ms,
            batch_max=config.batch_max,
            cross_session=config.shared,
            completion_hook=lambda request: self.store.commit(request.address),
            metrics=metrics,
        )
        self.controller = FleetAdmissionController(
            config.budget, miss_ratio=self.store.expected_miss_ratio
        )
        self.matchmaker = Matchmaker(
            self.sim,
            config.lobby,
            self.controller,
            estimate_for=self._estimate_for,
            launch=self._launch,
            active_estimates=self._active_estimates,
            metrics=metrics,
        )
        self._active: Dict[int, SessionEstimate] = {}
        self._next_id = 0
        self.reports: List[SessionReport] = []
        self.joins: List[float] = []
        self.completed = 0
        reference = SessionConfig()
        for game in trace.games():
            if game not in ALL_GAMES:
                raise ValueError(
                    f"unknown game {game!r} in arrival trace; "
                    f"known: {tuple(ALL_GAMES)}"
                )
            world = load_game(game)
            self.store.register_world(game, world_cache_key(
                game, world.scale, _WORLD_KEY_SEED,
                reference.render_config, reference.codec_crf,
                world.spec.player.eye_height,
            ))
        self._join_gauge = None
        self._join_hist = None
        self._admitted_counter = None
        self._completed_counter = None
        if metrics is not None:
            self._join_gauge = metrics.gauge("join_latency_ms")
            self._join_hist = metrics.histogram(
                "fleet_join_latency_ms", edges=JOIN_BUCKETS_MS
            )
            self._admitted_counter = metrics.counter(
                "fleet_sessions_admitted_total"
            )
            self._completed_counter = metrics.counter(
                "fleet_sessions_completed_total"
            )
            active_gauge = metrics.gauge("fleet_active_sessions")
            metrics.register_probe(
                lambda: active_gauge.set(float(len(self._active)))
            )
            dedup_gauge = metrics.gauge("fleet_dedup_ratio")
            metrics.register_probe(
                lambda: dedup_gauge.set(self.store.hit_ratio)
            )

    # ------------------------------------------------------------------
    # Matchmaker collaborators
    # ------------------------------------------------------------------

    def _demand(self, game: str, players: int, seed: int) -> SessionDemand:
        """The demand stream of one (prospective) session."""
        return demand_for(
            game, players, self.config.session_duration_s, seed,
            stride_ms=self.config.stride_ms,
            spacing_m=self.config.spacing_m,
        )

    def _estimate_for(self, game: str, players: int) -> SessionEstimate:
        """Admission forecast for the *next* session slot's seed."""
        seed = self.config.seed + self._next_id
        return self._demand(game, players, seed).estimate()

    def _active_estimates(self) -> List[SessionEstimate]:
        """Live session estimates in deterministic (session-id) order."""
        return [self._active[sid] for sid in sorted(self._active)]

    def _launch(self, game: str, members: Tuple[float, ...],
                decision: FleetDecision) -> None:
        """Start serving an admitted session."""
        session_id = self._next_id
        self._next_id += 1
        seed = self.config.seed + session_id
        demand = self._demand(game, len(members), seed)
        self._active[session_id] = demand.estimate()
        if self._admitted_counter is not None:
            self._admitted_counter.inc()
        self.sim.spawn(self._serve(session_id, game, members, demand))

    # ------------------------------------------------------------------
    # Session serving process
    # ------------------------------------------------------------------

    def _serve(self, session_id: int, game: str,
               members: Tuple[float, ...], demand: SessionDemand):
        """Generator process: warm-up, ACTIVE, demand replay, teardown."""
        t0 = self.sim.now
        warm = demand.points[: self.config.warmup_points]
        rest = demand.points[self.config.warmup_points:]
        warm_events = []
        for point in warm:
            hit, address = self.store.lookup(session_id, game, point.grid_point)
            if not hit:
                warm_events.append(self.farm.submit(
                    session_id, address, t0 + self.config.deadline_ms
                ))
        if warm_events:
            yield all_of(self.sim, warm_events)
        active_ms = self.sim.now
        join_ms = tuple(active_ms - arrival for arrival in members)
        for join in join_ms:
            self.joins.append(join)
            if self._join_gauge is not None:
                self._join_gauge.set(join)
                self._join_hist.observe(join)
        outstanding = []
        for point in rest:
            target = t0 + point.t_offset_ms
            if target > self.sim.now:
                yield target - self.sim.now
            hit, address = self.store.lookup(session_id, game, point.grid_point)
            if not hit:
                outstanding.append(self.farm.submit(
                    session_id, address,
                    self.sim.now + self.config.deadline_ms,
                ))
        end_target = t0 + demand.duration_ms
        if end_target > self.sim.now:
            yield end_target - self.sim.now
        pending = [event for event in outstanding if not event.triggered]
        if pending:
            yield all_of(self.sim, pending)
        del self._active[session_id]
        self.completed += 1
        if self._completed_counter is not None:
            self._completed_counter.inc()
        self.reports.append(SessionReport(
            session_id=session_id,
            game=game,
            players=len(members),
            admitted_ms=t0,
            active_ms=active_ms,
            end_ms=self.sim.now,
            join_ms=join_ms,
            demand_points=len(demand.points),
            store_hits=self.store.session_hits.get(session_id, 0),
            farm_renders=self.farm.served(session_id),
        ))

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def summarize(self) -> FleetSummary:
        """Freeze the run's tallies (call after the queue drains)."""
        stats = self.matchmaker.stats
        makespan_ms = self.sim.now
        sessions_per_s = (
            self.completed / (makespan_ms / 1000.0) if makespan_ms > 0 else 0.0
        )
        joins = self.joins
        return FleetSummary(
            games=self.trace.games(),
            arrivals=len(self.trace),
            horizon_ms=self.trace.horizon_ms,
            makespan_ms=makespan_ms,
            players_arrived=stats.players_arrived,
            players_matched=stats.players_matched,
            players_rejected=stats.players_rejected,
            players_unmatched=self.matchmaker.waiting(),
            sessions_formed=stats.sessions_formed,
            sessions_admitted=stats.sessions_admitted,
            sessions_rejected=stats.sessions_rejected,
            admission_retries=stats.admission_retries,
            rejects_by_reason=tuple(sorted(stats.rejects_by_reason.items())),
            sessions_completed=self.completed,
            sessions_per_s=sessions_per_s,
            join_count=len(joins),
            join_mean_ms=sum(joins) / len(joins) if joins else 0.0,
            join_p50_ms=percentile(joins, 50.0) if joins else 0.0,
            join_p99_ms=percentile(joins, 99.0) if joins else 0.0,
            farm=self.farm.snapshot(),
            store_lookups=self.store.lookups,
            store_hits=self.store.hits,
            store_misses=self.store.misses,
            dedup_ratio=self.store.hit_ratio,
        )


def run_fleet(config: FleetConfig,
              metrics: Optional[MetricsHub] = None) -> FleetResult:
    """Simulate one fleet serving run end to end.

    ``metrics`` is an optional :class:`~repro.telemetry.MetricsHub`; when
    given, the run feeds the fleet gauges/counters (including the stock
    ``join_latency_ms`` series the join-latency SLO evaluates) without
    perturbing the simulation.  Returns the frozen summary, per-session
    reports in completion order, and — under ``fidelity="full"`` — one
    real single-session replay per admitted session.
    """
    trace = config.resolve_arrivals()
    run = _FleetRun(config, trace, metrics)
    run.matchmaker.feed(trace)
    run.sim.run()
    summary = run.summarize()
    session_runs: List[RunResult] = []
    if config.fidelity == "full":
        for report in sorted(run.reports, key=lambda r: r.session_id):
            session_runs.append(run_system(
                config.system,
                report.game,
                report.players,
                SessionConfig(
                    duration_s=config.session_duration_s,
                    seed=config.seed + report.session_id,
                ),
            ))
    return FleetResult(
        summary=summary,
        sessions=tuple(run.reports),
        session_runs=tuple(session_runs),
    )
