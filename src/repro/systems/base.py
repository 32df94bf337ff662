"""Shared scaffolding for the end-to-end system simulations.

Each system (Mobile, Thin-client, Multi-Furion, Coterie) simulates N phones
sharing one 802.11ac link for a fixed game-play duration, producing the
per-player metrics of Tables 1/7/8 and the aggregate network/resource
numbers of Table 9 and Fig. 12.

The per-frame loop is a discrete-event process per player: modeled task
latencies (render, decode, sync) combine with *actual* simulated network
transfers through Eq. 2; a frame faster than vsync waits for it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..adapt import AbrController
from ..codec import CodecTiming, FrameCodec
from ..faults import ChurnSchedule, FaultInjector, FaultSchedule
from ..geometry import Vec2
from ..metrics import (
    CpuModel,
    FrameRecord,
    MetricsCollector,
    PowerModel,
    SessionMetrics,
    ThermalModel,
)
from ..net import ImpairmentConfig, LinkImpairment, PunChannel, WifiLink
from ..predict import PredictConfig
from ..render import PIXEL2, DeviceProfile, RenderConfig, RenderCostModel
from ..session import MembershipSummary, SessionSupervisor, SupervisorConfig
from ..sim import Simulator
from ..telemetry import MetricsHub, SessionObserver, SpanTracer
from ..trace import FRAME_MS, Trajectory, generate_party
from ..world.games import GameWorld

SENSOR_SCANOUT_MS = 0.5  # pose sampling + display scanout overhead

# Minimum process yield: a client whose pipeline is slower than its
# transfer must still cede the simulator, or it could re-enter its loop
# at the exact same timestamp forever (busy-spin hazard).
MIN_YIELD_MS = 1e-3


@dataclass
class SessionConfig:
    """Knobs shared by every system run."""

    duration_s: float = 20.0
    seed: int = 0
    device: DeviceProfile = PIXEL2
    render_config: RenderConfig = field(default_factory=RenderConfig)
    codec_crf: float = 25.0
    wifi_mbps: float = 500.0
    render_frames: bool = False  # True: full-fidelity frames (slow)
    # --- robustness (all default-off: clean runs are bit-identical) ---
    impairment: Optional[ImpairmentConfig] = None  # link loss/jitter/dips
    faults: Optional[FaultSchedule] = None  # scripted failure windows
    # --- adaptation (False: fixed CRF, no estimator, clean path) ---
    adapt: bool = False  # closed-loop ABR (repro.adapt)
    prefetch_deadline_ms: Optional[float] = None  # None: frame budget - merge
    fetch_timeout_ms: float = 250.0  # first background-retry timeout
    fetch_max_retries: int = 5  # background re-issues before giving up
    fetch_backoff_cap_ms: float = 2000.0  # retry timeout ceiling
    # --- session membership (None: fixed roster, no supervisor) ---
    churn: Optional[ChurnSchedule] = None  # scripted join/leave/crash
    supervision: Optional[SupervisorConfig] = None  # warm-up and roster-cap knobs
    # --- speculation (None: no prediction, clean path bit-identical) ---
    predict: Optional[PredictConfig] = None  # pose-prediction prefetch knobs
    # --- sync validation (False: no digest exchange, clean path) ---
    sync: bool = False  # cross-peer desync detection (repro.session.sync)
    # --- observability (both None: no observer is built, zero overhead) ---
    # A repro.telemetry.SpanTracer (sim-time spans for the whole online
    # path) and a repro.telemetry.MetricsHub (counters/gauges/histograms
    # sampled on a sim-time cadence across the engine, link, caches, frame
    # loop, ABR and supervisor).  Purely observational: a traced and/or
    # metered run produces the same result as a plain one, asserted per
    # scenario by the twin in tests/systems/test_loop_golden.py.
    tracer: Optional[SpanTracer] = None
    metrics: Optional[MetricsHub] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.duration_s * 1000.0 < FRAME_MS:
            raise ValueError(
                f"duration_s must be at least one frame (1/60 s), got {self.duration_s}"
            )
        if self.wifi_mbps <= 0:
            raise ValueError("wifi_mbps must be positive")
        if self.prefetch_deadline_ms is not None and self.prefetch_deadline_ms <= 0:
            raise ValueError("prefetch_deadline_ms must be positive")
        if self.fetch_timeout_ms <= 0 or self.fetch_backoff_cap_ms <= 0:
            raise ValueError("fetch timeouts must be positive")
        if self.fetch_max_retries < 0:
            raise ValueError("fetch_max_retries must be non-negative")

    @property
    def supervised(self) -> bool:
        """Whether a session supervisor runs (any churn config, even an
        empty schedule, turns supervision on; None keeps the fixed-roster
        clean path bit-identical)."""
        return self.churn is not None

    @property
    def degraded_mode(self) -> bool:
        """Whether any robustness machinery is active for this run.

        False for the default config: the clean fast path is untouched,
        keeping pre-robustness runs bit-identical.
        """
        return (
            self.impairment is not None
            or self.faults is not None
            or self.prefetch_deadline_ms is not None
            or self.adapt
        )


@dataclass
class PlayerResult:
    """One player's aggregated session outcome."""

    player_id: int
    metrics: SessionMetrics
    fetches: int
    power_w: float
    temperature_c: float
    # SSIM across each far-BE source switch (full-fidelity Coterie runs
    # only); feeds the §7.4 user-study model.
    switch_ssims: List[float] = field(default_factory=list)
    # Raw per-frame records, for timeline analyses (recovery curves).
    records: List[FrameRecord] = field(default_factory=list)

    def recovery_ms(self, after_ms: float, target_fps: float = 55.0,
                    window: int = 30) -> Optional[float]:
        """Time from ``after_ms`` until FPS is steady again (see collector)."""
        collector = MetricsCollector()
        collector.records = self.records
        return collector.recovery_ms(after_ms, target_fps, window)


def _mean(values: List[float]) -> float:
    """``np.mean``, but NaN without a warning for an empty roster (a
    supervised run where nobody ever displayed a frame)."""
    return float(np.mean(values)) if values else float("nan")


@dataclass
class RunResult:
    """A complete multi-player run of one system on one game."""

    system: str
    game: str
    n_players: int
    duration_s: float
    players: List[PlayerResult]
    be_mbps: float  # aggregate BE traffic over the air
    fi_kbps: float  # aggregate FI sync traffic
    link_utilization: float
    # Membership outcome when a session supervisor ran (None otherwise).
    membership: Optional[MembershipSummary] = None

    @property
    def mean_fps(self) -> float:
        return _mean([p.metrics.fps for p in self.players])

    @property
    def mean_inter_frame_ms(self) -> float:
        return _mean([p.metrics.inter_frame_ms for p in self.players])

    @property
    def mean_responsiveness_ms(self) -> float:
        return _mean([p.metrics.responsiveness_ms for p in self.players])

    @property
    def mean_cache_hit_ratio(self) -> Optional[float]:
        ratios = [
            p.metrics.cache_hit_ratio
            for p in self.players
            if p.metrics.cache_hit_ratio is not None
        ]
        if not ratios:
            return None
        return float(np.mean(ratios))

    def per_player_be_mbps(self) -> float:
        """Average BE traffic attributable to one player."""
        return self.be_mbps / self.n_players


class Session:
    """Simulation context shared by one run's player processes."""

    def __init__(self, world: GameWorld, n_players: int, config: SessionConfig):
        if n_players < 1:
            raise ValueError("n_players must be >= 1")
        self.world = world
        self.n_players = n_players
        self.config = config
        self.tracer: Optional[SpanTracer] = config.tracer
        self.sim = Simulator(tracer=self.tracer, metrics=config.metrics)
        # The single fault query point of the loop and its strategies;
        # over an empty schedule every query answers "nothing scripted".
        self.faults = FaultInjector(config.faults or FaultSchedule())
        self.link = WifiLink(
            self.sim,
            capacity_mbps=config.wifi_mbps,
            stations=n_players,
            impairment=self._build_impairment(),
            tracer=self.tracer,
            metrics=config.metrics,
        )
        self.pun = PunChannel(
            self.sim, self.link, n_players, seed=config.seed + 77
        )
        self.cost_model = RenderCostModel(config.device)
        self.codec = FrameCodec(crf=config.codec_crf)
        self.codec_timing = CodecTiming()
        # Late joiners occupy slots beyond the initial roster; with no
        # churn configured total_slots == n_players and every line below
        # is bit-identical to the fixed-roster code.
        extra_slots = (
            config.churn.new_player_count() if config.churn is not None else 0
        )
        self.total_slots = n_players + extra_slots
        if config.churn is not None:
            config.churn.validate_slots(self.total_slots)
        if config.faults is not None:
            config.faults.validate_slots(self.total_slots)
        self.trajectories: List[Trajectory] = generate_party(
            world, self.total_slots, config.duration_s, seed=config.seed
        )
        self.collectors = [MetricsCollector() for _ in range(self.total_slots)]
        self.fi_ms = self.cost_model.fi_ms(world.spec.fi_triangles)
        self.horizon_ms = config.duration_s * 1000.0
        # Per-slot ABR controllers; seated by the fetch strategy (which knows
        # the nominal frame size) via init_abr.  None when adapt is off.
        self.abr: Optional[List[AbrController]] = None
        self.supervisor: Optional[SessionSupervisor] = None
        if config.supervised:
            self.supervisor = SessionSupervisor(
                self.sim,
                config.churn,
                n_initial=n_players,
                total_slots=self.total_slots,
                config=config.supervision or SupervisorConfig(),
                pun=self.pun,
                tracer=self.tracer,
                metrics=config.metrics,
                horizon_ms=self.horizon_ms,
            )
        # The run's one observation seam (None: nothing is observed).
        # Built last: its session-wide instruments register after the
        # engine's, the link's and the supervisor's.
        self.observer: Optional[SessionObserver] = None
        if self.tracer is not None or config.metrics is not None:
            self.observer = SessionObserver(self)

    def _build_impairment(self) -> Optional[LinkImpairment]:
        """Compose the configured impairment with fault-schedule windows.

        Returns None when nothing impairs the link, preserving the clean
        fast path exactly.
        """
        config = self.config
        dips = config.faults.dips() if config.faults else ()
        base = config.impairment
        if base is None and not dips:
            return None
        if base is None:
            base = ImpairmentConfig(seed=config.seed + 104729)
        if dips:
            base = dataclasses.replace(base, dips=base.dips + dips)
        return LinkImpairment(base)

    def init_abr(self, nominal_bytes: float) -> Optional[List[AbrController]]:
        """Seat one ABR controller per slot (no-op when adapt is off).

        ``nominal_bytes`` anchors the ladder forecast: the typical wire
        size of this system's frames at base quality (Coterie: the far-BE
        size model mean; whole-BE systems: their size model mean).
        """
        if not self.config.adapt:
            return None
        self.abr = [
            AbrController(
                player_id,
                base_crf=self.config.codec_crf,
                deadline_ms=self.prefetch_deadline_ms(),
                nominal_bytes=nominal_bytes,
                tracer=self.tracer,
            )
            for player_id in range(self.total_slots)
        ]
        return self.abr

    def prefetch_deadline_ms(self) -> float:
        """Per-frame prefetch deadline derived from the frame budget.

        Eq. 2 adds the merge stage after the concurrent tasks, so for the
        display to hold 60 FPS the prefetch must land within the frame
        budget minus the merge time.
        """
        if self.config.prefetch_deadline_ms is not None:
            return self.config.prefetch_deadline_ms
        return max(1.0, 1000.0 / 60.0 - self.config.device.merge_ms)

    def blocked(self, player_id: int, process):
        """``process``, a client's wait on the link, wrapped so that a
        supervised client keeps heartbeating while it waits (the beat
        rides the PUN channel); ``process`` itself when no supervisor
        runs."""
        if self.supervisor is None:
            return process
        return self.supervisor.beating(player_id, process)

    def position_at(self, player: int, t_ms: float):
        """Time-indexed trajectory lookup (players move in real time even
        when the display runs below 60 FPS).

        Scripted pose jumps (teleports, snap-turns) apply as cumulative
        offsets from their instant onward — a permanent discontinuity the
        pose predictor cannot extrapolate across.  With no pose faults
        scheduled the original sample is returned untouched.
        """
        sample = self.trajectories[player][self.sample_index(player, t_ms)]
        if self.faults.schedule.poses:
            sample = self._apply_pose_faults(player, t_ms, sample)
        return sample

    def sample_index(self, player: int, t_ms: float) -> int:
        """Index of the trajectory sample ``position_at`` reads at ``t_ms``."""
        last = len(self.trajectories[player]) - 1
        return min(last, max(0, int(t_ms / (1000.0 / 60.0))))

    def _apply_pose_faults(self, player: int, t_ms: float, sample):
        """Offset a trajectory sample by every pose jump in effect."""
        dx = dy = dheading = 0.0
        for jump in self.faults.schedule.poses:
            if jump.applies(player, t_ms):
                dx += jump.dx
                dy += jump.dy
                dheading += jump.dheading
        if dx == 0.0 and dy == 0.0 and dheading == 0.0:
            return sample
        position = self.world.scene.bounds.clamp(
            sample.position + Vec2(dx, dy)
        )
        return dataclasses.replace(
            sample, position=position, heading=sample.heading + dheading
        )

    def finish(
        self,
        system: str,
        switch_ssims: Optional[List[List[float]]] = None,
        *,
        decoding: bool = False,
        cache_enabled: bool = False,
    ) -> RunResult:
        """Aggregate collected metrics once the simulation has drained.

        The CPU model rolls up here from each slot's GPU load and BE
        share; ``decoding`` and ``cache_enabled`` are the system's terms
        of that model.
        """
        horizon = self.horizon_ms
        be_mbps = self.link.bandwidth_mbps("be", horizon)
        fi_kbps = self.link.bandwidth_mbps("fi", horizon) * 1000.0
        cpu_model = CpuModel()
        cpu_per_player = [
            cpu_model.utilization(
                gpu_utilization=collector.gpu_utilization(),
                net_mbps=be_mbps / self.n_players,
                decoding=decoding,
                cache_enabled=cache_enabled,
                n_players=self.n_players,
            )
            if collector.records
            else 0.0
            for collector in self.collectors
        ]
        power_model = PowerModel()
        players = []
        for player_id, collector in enumerate(self.collectors):
            if not collector.records:
                # A slot that never displayed a frame (join rejected,
                # crashed mid-warm-up, or a link too slow for one fetch)
                # has no QoE row to report.
                continue
            metrics = collector.summary(cpu_utilization=cpu_per_player[player_id])
            if self.abr is not None:
                controller = self.abr[player_id]
                metrics = dataclasses.replace(
                    metrics,
                    abr_steps_down=controller.steps_down,
                    abr_steps_up=controller.steps_up,
                    abr_drops=controller.drops,
                    abr_mean_crf=controller.mean_crf(horizon),
                    abr_degraded_ms=controller.degraded_ms(horizon),
                    abr_crf_timeline=tuple(controller.crf_timeline),
                )
            if self.supervisor is not None:
                stats = self.supervisor.stats[player_id]
                metrics = dataclasses.replace(
                    metrics,
                    join_latency_ms=stats.join_latency_ms,
                    warmup_ms=stats.warmup_ms,
                    epochs_survived=stats.epochs_survived,
                    evictions=stats.evictions,
                    incarnations=stats.incarnations,
                )
            net_share = be_mbps / self.n_players
            power = power_model.draw_w(
                metrics.cpu_utilization, metrics.gpu_utilization, net_share
            )
            thermal = ThermalModel()
            for _ in range(int(self.config.duration_s) + 1):
                thermal.step(power, dt_s=1.0)
            players.append(
                PlayerResult(
                    player_id=player_id,
                    metrics=metrics,
                    fetches=sum(1 for r in collector.records if r.frame_bytes > 0),
                    power_w=power,
                    temperature_c=thermal.temperature_c,
                    switch_ssims=(
                        switch_ssims[player_id] if switch_ssims else []
                    ),
                    records=list(collector.records),
                )
            )
        return RunResult(
            system=system,
            game=self.world.name,
            n_players=self.n_players,
            duration_s=self.config.duration_s,
            players=players,
            be_mbps=be_mbps,
            fi_kbps=fi_kbps,
            link_utilization=self.link.utilization(horizon),
            membership=(
                self.supervisor.summary() if self.supervisor is not None else None
            ),
        )
