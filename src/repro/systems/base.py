"""Shared scaffolding for the end-to-end system simulations.

Each system (Mobile, Thin-client, Multi-Furion, Coterie) simulates N phones
sharing one 802.11ac link for a fixed game-play duration, producing the
per-player metrics of Tables 1/7/8 and the aggregate network/resource
numbers of Table 9 and Fig. 12.

The per-frame loop is a discrete-event process per player: modeled task
latencies (render, decode, sync) combine with *actual* simulated network
transfers through Eq. 2, then vsync-quantize into the display interval.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..adapt import AbrConfig, AbrController
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
from ..session import MembershipSummary, SessionSupervisor, SupervisorConfig, SyncConfig
from ..sim import Simulator
from ..telemetry import LATENCY_BUCKETS_MS, as_hub, as_tracer
from ..trace import Trajectory, generate_party
from ..world.games import GameWorld

if TYPE_CHECKING:
    from ..telemetry import MetricsHub, SpanTracer

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
    wifi_overhead_ms: float = 1.5
    render_frames: bool = False  # True: full-fidelity frames (slow)
    cache_capacity_bytes: int = 512 * 1024 * 1024
    cache_policy: str = "lru"
    # --- robustness (all default-off: clean runs are bit-identical) ---
    impairment: Optional[ImpairmentConfig] = None  # link loss/jitter/dips
    faults: Optional[FaultSchedule] = None  # scripted failure windows
    # --- adaptation (None: fixed CRF, no estimator, clean path) ---
    adapt: Optional[AbrConfig] = None  # closed-loop ABR knobs
    prefetch_deadline_ms: Optional[float] = None  # None: frame budget - merge
    fetch_timeout_ms: float = 250.0  # first background-retry timeout
    fetch_max_retries: int = 5  # background re-issues before giving up
    fetch_backoff_cap_ms: float = 2000.0  # retry timeout ceiling
    # --- session membership (None: fixed roster, no supervisor) ---
    churn: Optional[ChurnSchedule] = None  # scripted join/leave/crash
    supervision: Optional[SupervisorConfig] = None  # detector/admission knobs
    # --- speculation (None: no prediction, clean path bit-identical) ---
    predict: Optional[PredictConfig] = None  # pose-prediction prefetch knobs
    # --- sync validation (None: no digest exchange, clean path) ---
    sync: Optional[SyncConfig] = None  # cross-peer desync detection knobs
    # --- observability (None: tracing off, zero overhead) ---
    # A repro.telemetry.SpanTracer recording sim-time spans for the whole
    # online path.  Purely observational: a traced run produces the same
    # metrics as an untraced one (asserted by bench_trace_overhead).
    tracer: Optional[SpanTracer] = None
    # A repro.telemetry.MetricsHub sampling counters/gauges/histograms on
    # a sim-time cadence across the engine, link, caches, frame loops,
    # ABR, and supervisor.  Same contract as the tracer: observational
    # only, bit-identical results (asserted by bench_metrics_overhead).
    metrics: Optional[MetricsHub] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
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
            or self.adapt is not None
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


class _PlayerMeter:
    """Cached per-player instrument handles for the frame-loop hot path.

    Built lazily on a player's first metered frame so late joiners and
    never-admitted slots cost nothing; holding the handles here keeps
    :meth:`Session.meter_frame` free of registry lookups.
    """

    __slots__ = (
        "interval_hist", "render_hist", "net_hist", "responsiveness_hist",
        "margin_gauge", "delivery_gauge", "crf_gauge", "degraded_gauge",
        "abr_drops", "abr_steps",
    )

    def __init__(self, hub, player_id: int) -> None:
        labels = {"player": str(player_id)}
        self.interval_hist = hub.histogram(
            "frame_interval_ms", labels, edges=LATENCY_BUCKETS_MS
        )
        self.render_hist = hub.histogram(
            "stage_render_ms", labels, edges=LATENCY_BUCKETS_MS
        )
        self.net_hist = hub.histogram(
            "stage_net_ms", labels, edges=LATENCY_BUCKETS_MS
        )
        self.responsiveness_hist = hub.histogram(
            "responsiveness_ms", labels, edges=LATENCY_BUCKETS_MS
        )
        self.margin_gauge = hub.gauge("deadline_margin_ms", labels)
        self.delivery_gauge = hub.gauge("delivery_rate_mbps", labels)
        self.crf_gauge = hub.gauge("abr_crf", labels)
        self.degraded_gauge = hub.gauge("abr_degraded", labels)
        self.abr_drops = hub.counter("abr_drops_total", labels)
        self.abr_steps = hub.counter("abr_steps_total", labels)


class Session:
    """Simulation context shared by one run's player processes."""

    def __init__(self, world: GameWorld, n_players: int, config: SessionConfig):
        if n_players < 1:
            raise ValueError("n_players must be >= 1")
        self.world = world
        self.n_players = n_players
        self.config = config
        self.tracer = as_tracer(config.tracer)
        self.hub = as_hub(config.metrics)
        self.sim = Simulator(tracer=self.tracer, metrics=self.hub)
        # The single fault query point of the loop and its strategies;
        # over an empty schedule every query answers "nothing scripted".
        self.faults = FaultInjector(config.faults or FaultSchedule())
        self.link = WifiLink(
            self.sim,
            capacity_mbps=config.wifi_mbps,
            overhead_ms=config.wifi_overhead_ms,
            stations=n_players,
            impairment=self._build_impairment(),
            tracer=self.tracer,
            metrics=self.hub,
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
                metrics=self.hub,
                horizon_ms=self.horizon_ms,
            )
        # Session-wide metering: unlabeled totals the SLO engine's ratio
        # objectives divide (per-player detail lives in _PlayerMeter).
        self._meters: dict = {}
        if self.hub.enabled:
            hub = self.hub
            self._frames_total = hub.counter("frames_total")
            self._misses_total = hub.counter("deadline_misses_total")
            self._drops_total = hub.counter("frames_dropped_total")
            self._stales_total = hub.counter("stale_frames_total")
            self._ssim_gauge = hub.gauge("displayed_ssim")
            pun = self.pun
            pun_gauge = hub.gauge("pun_players")
            hub.register_probe(
                lambda: pun_gauge.set(float(pun.n_players))
            )

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

    def fault_label(self, now_ms: float) -> str:
        """Scheduled fault episodes active at ``now_ms`` (span attribution).

        ``"dip"``, ``"stall"``, ``"outage"`` joined with ``+`` when windows
        overlap; ``""`` when nothing scripted is active.  Ambient
        impairment (always-on loss/jitter) is not an episode and is not
        labelled.
        """
        schedule = self.faults.schedule
        return "+".join(
            label
            for label, windows in (
                ("dip", schedule.link),
                ("stall", schedule.stalls),
                ("outage", schedule.outages),
                ("specstorm", schedule.spec_storms),
                ("speccorrupt", schedule.spec_corruptions),
            )
            if any(w.start_ms <= now_ms < w.end_ms for w in windows)
        )

    # ------------------------------------------------------------------
    # Telemetry emitters (call only when ``self.tracer.enabled`` — the
    # frame loop guards, so the disabled path never reaches these)
    # ------------------------------------------------------------------

    def trace_pipeline_frame(
        self,
        player_id: int,
        frame: int,
        t0: float,
        timings,
        interval_ms: float,
        *,
        frame_bytes: int = 0,
        cache: Optional[str] = None,
        deadline_missed: bool = False,
        stale_age_ms: Optional[float] = None,
    ) -> None:
        """Emit one Eq. 2 pipeline frame: concurrent stages + merge + wait.

        The four concurrent tasks (render, decode, prefetch, sync) all
        start at the interval origin; merge follows their max; any
        remainder up to the display interval is the vsync wait.
        """
        tracer = self.tracer
        args = {
            "frame": frame,
            "interval_ms": round(interval_ms, 6),
            "fault": self.fault_label(t0),
        }
        if frame_bytes:
            args["bytes"] = frame_bytes
        if cache is not None:
            args["cache"] = cache
        if deadline_missed:
            args["deadline_missed"] = True
        if stale_age_ms is not None:
            args["stale_age_ms"] = round(stale_age_ms, 4)
        tracer.complete(
            "frame", player_id, "frame", t0, interval_ms, cat="frame",
            args=args,
        )
        stage_args = {"frame": frame}
        for lane, dur in (
            ("render", timings.render_ms),
            ("decode", timings.decode_ms),
            ("prefetch", timings.prefetch_ms),
            ("sync", timings.sync_ms),
        ):
            if dur > 0.0:
                tracer.complete(lane, player_id, lane, t0, dur, args=stage_args)
        split = timings.split_render_ms()
        if timings.merge_ms > 0.0:
            tracer.complete(
                "merge", player_id, "merge", t0 + split - timings.merge_ms,
                timings.merge_ms, args=stage_args,
            )
        wait = interval_ms - split
        if wait > 1e-9:
            tracer.complete(
                "wait", player_id, "wait", t0 + split, wait, args=stage_args
            )

    def trace_sequential_frame(
        self,
        player_id: int,
        frame: int,
        t0: float,
        stages,
        interval_ms: float,
        *,
        frame_bytes: int = 0,
    ) -> None:
        """Emit one sequential frame (thin client): stages laid end to end,
        any remainder up to the display interval as the vsync wait.

        ``stages`` is an ordered iterable of ``(lane, duration_ms)``.
        """
        tracer = self.tracer
        args = {
            "frame": frame,
            "interval_ms": round(interval_ms, 6),
            "fault": self.fault_label(t0),
        }
        if frame_bytes:
            args["bytes"] = frame_bytes
        tracer.complete(
            "frame", player_id, "frame", t0, interval_ms, cat="frame",
            args=args,
        )
        stage_args = {"frame": frame}
        cursor = t0
        for lane, dur in stages:
            if dur > 0.0:
                tracer.complete(lane, player_id, lane, cursor, dur,
                                args=stage_args)
                cursor += dur
        wait = t0 + interval_ms - cursor
        if wait > 1e-9:
            tracer.complete(
                "wait", player_id, "wait", cursor, wait, args=stage_args
            )

    def trace_outage(self, player_id: int, start_ms: float, end_ms: float) -> None:
        """Mark a scripted disconnect on the player's frame lane."""
        self.tracer.complete(
            "outage", player_id, "frame", start_ms, end_ms - start_ms,
            cat="fault", args={"fault": "outage"},
        )

    # ------------------------------------------------------------------
    # Metrics emitters (call only when ``self.hub.enabled`` — the frame
    # loop guards, so the disabled path never reaches these)
    # ------------------------------------------------------------------

    def meter_frame(self, player_id: int, record: FrameRecord) -> None:
        """Meter one displayed frame into the hub and pump sampling.

        Stage latencies land in per-player histograms, outcomes bump the
        session-wide SLO counters, and the hub gets a sampling pass at
        the *current* sim time (``record.t_ms`` is the future display
        stamp; sampling off it would stamp boundaries not yet reached).
        """
        hub = self.hub
        meter = self._meters.get(player_id)
        if meter is None:
            meter = self._meters[player_id] = _PlayerMeter(hub, player_id)
        meter.interval_hist.observe(record.interval_ms)
        meter.render_hist.observe(record.render_ms)
        meter.responsiveness_hist.observe(record.responsiveness_ms)
        self._frames_total.inc()
        if record.deadline_missed:
            self._misses_total.inc()
        if record.dropped:
            self._drops_total.inc()
        if record.stale_age_ms is not None:
            self._stales_total.inc()
        if record.displayed_ssim is not None:
            self._ssim_gauge.set(record.displayed_ssim)
        if record.frame_bytes > 0:
            meter.net_hist.observe(record.net_delay_ms)
            meter.margin_gauge.set(
                self.prefetch_deadline_ms() - record.net_delay_ms
            )
            if record.net_delay_ms > 0:
                meter.delivery_gauge.set(
                    record.frame_bytes * 8.0 / 1000.0 / record.net_delay_ms
                )
        if self.abr is not None:
            controller = self.abr[player_id]
            meter.crf_gauge.set(controller.crf)
            meter.degraded_gauge.set(1.0 if controller.degraded else 0.0)
            meter.abr_drops.set_total(float(controller.drops))
            meter.abr_steps.set_total(
                float(controller.steps_down + controller.steps_up)
            )
        hub.maybe_sample(self.sim.now)

    def meter_cache(self, player_id: int, cache) -> None:
        """Register hit/miss/occupancy probes for a player's frame cache.

        Probe-based so the cache itself needs no metrics plumbing: the
        hub reads ``cache.stats`` at each sample boundary only.
        """
        hub = self.hub
        labels = {"player": str(player_id)}
        hits = hub.counter("cache_hits_total", labels)
        misses = hub.counter("cache_misses_total", labels)
        evictions = hub.counter("cache_evictions_total", labels)
        ratio = hub.gauge("cache_hit_ratio", labels)
        occupancy = hub.gauge("cache_occupancy_bytes", labels)
        entries = hub.gauge("cache_entries", labels)

        def probe() -> None:
            stats = cache.stats
            hits.set_total(float(stats.hits))
            misses.set_total(float(stats.misses))
            evictions.set_total(float(stats.evictions))
            if stats.lookups:
                ratio.set(stats.hit_ratio)
            occupancy.set(float(cache.used_bytes))
            entries.set(float(len(cache)))

        hub.register_probe(probe)

    def meter_store(self, store) -> None:
        """Register render/occupancy probes for the shared panorama store."""
        hub = self.hub
        renders = hub.counter("store_renders_total")
        memo = hub.gauge("store_memo_entries")

        def probe() -> None:
            renders.set_total(float(store.renders))
            memo.set(float(store.memo_entries))

        hub.register_probe(probe)

    def init_abr(self, nominal_bytes: float) -> Optional[List[AbrController]]:
        """Seat one ABR controller per slot (no-op when adapt is off).

        ``nominal_bytes`` anchors the ladder forecast: the typical wire
        size of this system's frames at base quality (Coterie: the far-BE
        size model mean; whole-BE systems: their size model mean).
        """
        if self.config.adapt is None:
            return None
        self.abr = [
            AbrController(
                self.config.adapt,
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

    def position_at(self, player: int, t_ms: float):
        """Time-indexed trajectory lookup (players move in real time even
        when the display runs below 60 FPS).

        Scripted pose jumps (teleports, snap-turns) apply as cumulative
        offsets from their instant onward — a permanent discontinuity the
        pose predictor cannot extrapolate across.  With no pose faults
        scheduled the original sample is returned untouched.
        """
        trajectory = self.trajectories[player]
        index = min(len(trajectory) - 1, max(0, int(t_ms / (1000.0 / 60.0))))
        sample = trajectory[index]
        if self.faults.schedule.poses:
            sample = self._apply_pose_faults(player, t_ms, sample)
        return sample

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
        cpu_per_player: Optional[List[float]] = None,
        switch_ssims: Optional[List[List[float]]] = None,
        *,
        decoding: bool = False,
        cache_enabled: bool = False,
    ) -> RunResult:
        """Aggregate collected metrics once the simulation has drained.

        ``cpu_per_player`` None (every system run) rolls the CPU model up
        here from each slot's GPU load and BE share; ``decoding`` and
        ``cache_enabled`` are the system's terms of that model.
        """
        horizon = self.horizon_ms
        be_mbps = self.link.bandwidth_mbps("be", horizon)
        fi_kbps = self.link.bandwidth_mbps("fi", horizon) * 1000.0
        if cpu_per_player is None:
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
            if self.supervisor is not None and not collector.records:
                # A slot that never displayed a frame (join rejected, or
                # crashed mid-warm-up) has no QoE row to report.
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
