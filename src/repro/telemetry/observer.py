"""The one observation seam between a run and its telemetry sinks.

A :class:`~repro.systems.base.Session` builds a :class:`SessionObserver`
only when ``SessionConfig.tracer`` or ``.metrics`` is set (``None`` is
the only "telemetry off"), and the frame loop talks to nothing else: one
``frame`` call per displayed frame plus the ``outage`` / ``warmup``
marks; strategies hand it the state the hub should sample (``watch_*``).
Purely observational, like both sinks: it reads records and layouts
after the fact and never schedules an event or draws from an RNG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .metrics import MetricsHub
from .tracer import SpanTracer

if TYPE_CHECKING:
    from ..core.cache import FrameCache
    from ..core.preprocess import PanoramaStore
    from ..metrics import FrameRecord
    from ..systems.base import Session
    from ..systems.loop import FetchStrategy, FrameOutcome
    from ..systems.policies import SyncCheck


class _PlayerMeter:
    """One player's instrument handles, resolved on its first metered
    frame (late joiners and never-admitted slots register nothing)."""

    def __init__(self, hub: MetricsHub, player_id: int) -> None:
        labels = {"player": str(player_id)}
        self.interval_hist = hub.histogram("frame_interval_ms", labels)
        self.render_hist = hub.histogram("stage_render_ms", labels)
        self.net_hist = hub.histogram("stage_net_ms", labels)
        self.responsiveness_hist = hub.histogram("responsiveness_ms", labels)
        self.margin_gauge = hub.gauge("deadline_margin_ms", labels)
        self.delivery_gauge = hub.gauge("delivery_rate_mbps", labels)
        self.crf_gauge = hub.gauge("abr_crf", labels)
        self.degraded_gauge = hub.gauge("abr_degraded", labels)
        self.abr_drops = hub.counter("abr_drops_total", labels)
        self.abr_steps = hub.counter("abr_steps_total", labels)


class SessionObserver:
    """Feeds one run's frames, marks and sampled state to the tracer
    and/or the metrics hub."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.tracer: Optional[SpanTracer] = session.config.tracer
        hub = self.hub = session.config.metrics
        self._meters: Dict[int, _PlayerMeter] = {}
        if hub is not None:
            # Session-wide totals the SLO engine's ratio objectives
            # divide (per-player detail lives in _PlayerMeter).
            self._frames_total = hub.counter("frames_total")
            self._misses_total = hub.counter("deadline_misses_total")
            self._drops_total = hub.counter("frames_dropped_total")
            self._stales_total = hub.counter("stale_frames_total")
            self._ssim_gauge = hub.gauge("displayed_ssim")
            pun = session.pun
            pun_gauge = hub.gauge("pun_players")
            hub.register_probe(lambda: pun_gauge.set(float(pun.n_players)))

    # ------------------------------------------------------------------
    # The frame loop's calls
    # ------------------------------------------------------------------

    def frame(
        self,
        strategy: FetchStrategy,
        player_id: int,
        t0: float,
        record: FrameRecord,
        out: FrameOutcome,
    ) -> None:
        """One displayed frame: meter its record, then trace it — the
        ``frame`` span and, inside it, one span per stage of
        ``out.layout`` that took time (the vsync ``wait`` included),
        pipeline and sequential frames alike."""
        if self.hub is not None:
            self._meter_frame(player_id, record)
        tracer = self.tracer
        if tracer is None:
            return
        frame = strategy.frame_index[player_id]
        args = {
            "frame": frame,
            "interval_ms": round(record.interval_ms, 6),
            "fault": self.fault_label(t0),
        }
        if record.frame_bytes:
            args["bytes"] = record.frame_bytes
        if out.cache_label is not None:
            args["cache"] = out.cache_label
        if record.deadline_missed:
            args["deadline_missed"] = True
        if strategy.stale_in_trace and record.stale_age_ms is not None:
            args["stale_age_ms"] = round(record.stale_age_ms, 4)
        tracer.complete(
            "frame", player_id, "frame", t0, record.interval_ms, cat="frame", args=args
        )
        stage_args = {"frame": frame}
        for lane, start_ms, dur_ms in out.layout:
            if dur_ms > 0.0:
                tracer.complete(lane, player_id, lane, start_ms, dur_ms, args=stage_args)

    def outage(self, player_id: int, started_ms: float) -> None:
        """Mark a scripted disconnect, just ended, on the player's frame lane."""
        if self.tracer is not None:
            dur_ms = self.session.sim.now - started_ms
            self.tracer.complete(
                "outage", player_id, "frame", started_ms, dur_ms,
                cat="fault", args={"fault": "outage"},
            )

    def warmup(self, player_id: int, started_ms: float, args: dict) -> None:
        """Mark a late joiner's warm-up handshake, just finished."""
        if self.tracer is not None:
            dur_ms = self.session.sim.now - started_ms
            self.tracer.complete(
                "warmup", player_id, "net", started_ms, dur_ms, cat="membership", args=args
            )

    def fault_label(self, now_ms: float) -> str:
        """Scheduled fault episodes active at ``now_ms`` (span attribution).

        ``"dip"``, ``"stall"``, ``"outage"`` joined with ``+`` when windows
        overlap; ``""`` when nothing scripted is active.  Ambient
        impairment (always-on loss/jitter) is not an episode and is not
        labelled.
        """
        schedule = self.session.faults.schedule
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

    def _meter_frame(self, player_id: int, record: FrameRecord) -> None:
        """Meter one displayed frame into the hub and pump sampling.

        Stage latencies land in per-player histograms, outcomes bump the
        session-wide SLO counters, and the hub gets a sampling pass at
        the *current* sim time (``record.t_ms`` is the future display
        stamp; sampling off it would stamp boundaries not yet reached).
        """
        session = self.session
        meter = self._meters.get(player_id)
        if meter is None:
            meter = self._meters[player_id] = _PlayerMeter(self.hub, player_id)
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
            meter.margin_gauge.set(session.prefetch_deadline_ms() - record.net_delay_ms)
            if record.net_delay_ms > 0:
                meter.delivery_gauge.set(record.frame_bytes * 8.0 / 1000.0 / record.net_delay_ms)
        if session.abr is not None:
            controller = session.abr[player_id]
            meter.crf_gauge.set(controller.crf)
            meter.degraded_gauge.set(1.0 if controller.degraded else 0.0)
            meter.abr_drops.set_total(float(controller.drops))
            meter.abr_steps.set_total(float(controller.steps_down + controller.steps_up))
        self.hub.maybe_sample(session.sim.now)

    # ------------------------------------------------------------------
    # State the strategies ask to have sampled
    # ------------------------------------------------------------------

    def watch_cache(self, player_id: int, cache: FrameCache) -> None:
        """Trace the cache's lookups on the player's cache lane and
        sample its hit/miss/occupancy stats.

        Probe-based so the cache needs no metrics plumbing: the hub reads
        ``cache.stats`` at each sample boundary only.
        """
        if self.tracer is not None:
            cache.tracer = self.tracer
            cache.owner = player_id
        hub = self.hub
        if hub is None:
            return
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

    def watch_store(self, store: PanoramaStore) -> None:
        """Sample the shared panorama store's renders and memo size."""
        hub = self.hub
        if hub is None:
            return
        renders = hub.counter("store_renders_total")
        memo = hub.gauge("store_memo_entries")

        def probe() -> None:
            renders.set_total(float(store.renders))
            memo.set(float(store.memo_entries))

        hub.register_probe(probe)

    def watch_speculation(
        self, caches: Sequence[FrameCache], sync_check: Optional[SyncCheck]
    ) -> None:
        """Sample speculation / sync-check totals, mirroring the cache
        probes.  The four series are exported together whenever either
        feature is on."""
        hub = self.hub
        if hub is None:
            return
        collectors = self.session.collectors
        spec_inserts_total = hub.counter("spec_prefetches_landed_total")
        spec_confirms_total = hub.counter("spec_confirms_total")
        spec_rollbacks_total = hub.counter("spec_rollbacks_total")
        desync_alarms_total = hub.counter("desync_alarms_total")

        def probe() -> None:
            spec_inserts_total.set_total(float(sum(c.stats.speculative_inserts for c in caches)))
            spec_confirms_total.set_total(float(sum(c.stats.speculative_confirms for c in caches)))
            spec_rollbacks_total.set_total(
                float(sum(c.resilience.spec_rollbacks for c in collectors))
            )
            if sync_check is not None:
                desync_alarms_total.set_total(float(sync_check.validator.total_alarms))

        hub.register_probe(probe)
