"""Per-frame metric collection for a client session.

Each rendering interval the session records a :class:`FrameRecord`; the
collector aggregates them into the quantities the paper's tables report:
FPS, inter-frame latency, responsiveness (motion-to-photon), per-frame
sizes, network delay, and CPU/GPU utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .stats import mean, tail_summary

TARGET_FRAME_MS = 1000.0 / 60.0


@dataclass(frozen=True)
class FrameRecord:
    """Everything measured about one displayed frame."""

    t_ms: float  # display timestamp
    interval_ms: float  # time since the previous displayed frame
    render_ms: float  # GPU render time spent this frame
    responsiveness_ms: float  # motion-to-photon latency
    net_delay_ms: float = 0.0  # network delay on this frame's critical path
    frame_bytes: int = 0  # wire size of any frame fetched this interval
    cache_hit: Optional[bool] = None  # far-BE cache outcome (None: no cache)
    displayed_ssim: Optional[float] = None  # vs. reference, when computed
    deadline_missed: bool = False  # prefetch blew its per-frame deadline
    stale_age_ms: Optional[float] = None  # age of a stale fallback frame
    # The ABR drop policy chose to skip this frame's transfer (controlled
    # degradation; distinct from deadline_missed, which is reactive).
    dropped: bool = False

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if self.render_ms < 0 or self.responsiveness_ms < 0 or self.net_delay_ms < 0:
            raise ValueError("latencies must be non-negative")
        if self.stale_age_ms is not None and self.stale_age_ms < 0:
            raise ValueError("stale_age_ms must be non-negative")


@dataclass
class ResilienceStats:
    """Per-player degraded-mode counters not tied to a single frame."""

    fetch_retries: int = 0  # background re-issues after a fetch timeout
    fetches_abandoned: int = 0  # fetches given up after the retry cap
    rewarm_fetches: int = 0  # cache re-warms after a reconnect
    # Speculation outcomes (repro.predict); all zero unless prediction ran.
    spec_predictions: int = 0  # pose forecasts issued
    spec_prefetches: int = 0  # speculative fetches launched
    spec_confirms: int = 0  # speculative entries validated and promoted
    spec_mispredictions: int = 0  # forecasts whose error beat their radius
    spec_rollbacks: int = 0  # corrupt speculative entries rolled back
    spec_expired: int = 0  # speculative entries that aged out unconfirmed
    # Sync-validation outcomes (repro.session.sync); zero without it.
    desync_alarms: int = 0  # cross-peer state-hash mismatches raised
    desync_detection_ms: float = 0.0  # worst injection -> alarm latency
    resyncs: int = 0  # authoritative re-warms triggered by alarms
    resync_recovery_ms: float = 0.0  # alarm -> clean-round time, summed


@dataclass
class SessionMetrics:
    """Aggregated per-player results (one row of Table 1/7/8)."""

    fps: float
    inter_frame_ms: float
    responsiveness_ms: float
    net_delay_ms: float
    frame_kb: float
    gpu_utilization: float
    cpu_utilization: float
    cache_hit_ratio: Optional[float]
    mean_ssim: Optional[float]
    frames: int
    # Tail latencies (p50 tracks the mean on a healthy run; p95/p99 are
    # where deadline misses and fault episodes actually show up).
    p50_inter_frame_ms: float = 0.0
    p95_inter_frame_ms: float = 0.0
    p99_inter_frame_ms: float = 0.0
    p95_responsiveness_ms: float = 0.0
    p99_responsiveness_ms: float = 0.0
    # Degraded-mode outcomes; all zero on a clean run.
    deadline_miss_rate: float = 0.0
    stale_frames: int = 0
    mean_stale_age_ms: float = 0.0
    max_stale_age_ms: float = 0.0
    fetch_retries: int = 0
    fetches_abandoned: int = 0
    rewarm_fetches: int = 0
    # Membership outcomes (session supervision); all zero/one on a
    # churn-free run so clean-run equality is preserved bit-for-bit.
    join_latency_ms: float = 0.0  # join request -> ACTIVE, summed
    warmup_ms: float = 0.0  # admission -> ACTIVE, summed
    epochs_survived: int = 0  # membership epochs spent ACTIVE
    evictions: int = 0  # failure-detector evictions of this slot
    incarnations: int = 0  # admissions (0 when supervision is off)
    # Adaptive-streaming outcomes (repro.adapt); all zero/empty when no
    # controller ran, so clean-run equality is preserved bit-for-bit.
    drop_rate: float = 0.0  # ABR-dropped fraction of frames
    abr_steps_down: int = 0  # CRF ladder steps toward lower quality
    abr_steps_up: int = 0  # CRF ladder steps back toward base quality
    abr_drops: int = 0  # transfers skipped by the drop policy
    abr_mean_crf: float = 0.0  # time-weighted mean CRF over the session
    abr_degraded_ms: float = 0.0  # time spent below base quality
    # (t_ms, crf) at every ladder change, starting at (0, base_crf).
    abr_crf_timeline: tuple = ()
    # Speculation outcomes (repro.predict); all zero when prediction is
    # off, so clean-run equality is preserved bit-for-bit.
    spec_predictions: int = 0
    spec_prefetches: int = 0
    spec_confirms: int = 0
    spec_mispredictions: int = 0
    spec_rollbacks: int = 0
    spec_expired: int = 0
    # Sync-validation outcomes (repro.session.sync); zero without it.
    desync_alarms: int = 0
    desync_detection_ms: float = 0.0
    resyncs: int = 0
    resync_recovery_ms: float = 0.0


class MetricsCollector:
    """Accumulates frame records and computes session aggregates."""

    def __init__(self) -> None:
        self.records: List[FrameRecord] = []
        self.resilience = ResilienceStats()

    def add(self, record: FrameRecord) -> None:
        """Record one displayed frame."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------

    def fps(self) -> float:
        """Average frame rate, capped at the 60 Hz display refresh."""
        if not self.records:
            raise ValueError("no frames recorded")
        avg_interval = mean([r.interval_ms for r in self.records])
        return min(60.0, 1000.0 / avg_interval)

    def inter_frame_ms(self) -> float:
        """Mean display interval."""
        return mean([r.interval_ms for r in self.records])

    def responsiveness_ms(self) -> float:
        """Mean motion-to-photon latency."""
        return mean([r.responsiveness_ms for r in self.records])

    def net_delay_ms(self) -> float:
        """Average network delay over frames that actually used the net."""
        delays = [r.net_delay_ms for r in self.records if r.frame_bytes > 0]
        if not delays:
            return 0.0
        return mean(delays)

    def mean_frame_kb(self) -> float:
        """Mean wire size of fetched frames, in kilobytes."""
        sizes = [r.frame_bytes for r in self.records if r.frame_bytes > 0]
        if not sizes:
            return 0.0
        return mean(sizes) / 1000.0

    def gpu_utilization(self) -> float:
        """GPU busy fraction over the session."""
        if not self.records:
            raise ValueError("no frames recorded")
        busy = sum(r.render_ms for r in self.records)
        horizon = sum(r.interval_ms for r in self.records)
        return min(1.0, busy / horizon)

    def cache_hit_ratio(self) -> Optional[float]:
        """Cache hit ratio, or None when no cache was in play."""
        outcomes = [r.cache_hit for r in self.records if r.cache_hit is not None]
        if not outcomes:
            return None
        return sum(outcomes) / len(outcomes)

    def mean_ssim(self) -> Optional[float]:
        """Mean displayed-frame SSIM over sampled frames, if any."""
        values = [r.displayed_ssim for r in self.records if r.displayed_ssim is not None]
        if not values:
            return None
        return mean(values)

    def deadline_miss_rate(self) -> float:
        """Fraction of frames whose prefetch missed its deadline."""
        if not self.records:
            return 0.0
        return sum(r.deadline_missed for r in self.records) / len(self.records)

    def drop_rate(self) -> float:
        """Fraction of frames whose transfer the ABR policy skipped."""
        if not self.records:
            return 0.0
        return sum(r.dropped for r in self.records) / len(self.records)

    def stale_ages(self) -> List[float]:
        """Stale-fallback ages of the frames that displayed one."""
        return [r.stale_age_ms for r in self.records if r.stale_age_ms is not None]

    def recovery_ms(
        self,
        after_ms: float,
        target_fps: float = 55.0,
        window: int = 30,
    ) -> Optional[float]:
        """Time from ``after_ms`` until FPS is steady again, or None.

        Slides a ``window``-frame window over the records displayed after
        ``after_ms``; recovery is the first instant the window's mean
        interval meets ``target_fps`` *and* contains no deadline miss —
        i.e. the client is back to fetching fresh frames at full rate.
        """
        if target_fps <= 0 or window < 1:
            raise ValueError("target_fps and window must be positive")
        budget_ms = 1000.0 / target_fps
        tail = [r for r in self.records if r.t_ms >= after_ms]
        if len(tail) < window:
            return None
        for i in range(len(tail) - window + 1):
            chunk = tail[i:i + window]
            mean_interval = sum(r.interval_ms for r in chunk) / window
            if mean_interval <= budget_ms and not any(
                r.deadline_missed for r in chunk
            ):
                return max(0.0, chunk[-1].t_ms - after_ms)
        return None

    def inter_frame_tail_ms(self) -> "tuple[float, float, float]":
        """(p50, p95, p99) of the display interval."""
        return tail_summary([r.interval_ms for r in self.records])

    def responsiveness_tail_ms(self) -> "tuple[float, float, float]":
        """(p50, p95, p99) of motion-to-photon latency."""
        return tail_summary([r.responsiveness_ms for r in self.records])

    def summary(self, cpu_utilization: float) -> SessionMetrics:
        """Aggregate into one SessionMetrics row."""
        ages = self.stale_ages()
        p50_if, p95_if, p99_if = self.inter_frame_tail_ms()
        _, p95_resp, p99_resp = self.responsiveness_tail_ms()
        return SessionMetrics(
            fps=self.fps(),
            inter_frame_ms=self.inter_frame_ms(),
            responsiveness_ms=self.responsiveness_ms(),
            net_delay_ms=self.net_delay_ms(),
            frame_kb=self.mean_frame_kb(),
            gpu_utilization=self.gpu_utilization(),
            cpu_utilization=cpu_utilization,
            cache_hit_ratio=self.cache_hit_ratio(),
            mean_ssim=self.mean_ssim(),
            frames=len(self.records),
            p50_inter_frame_ms=p50_if,
            p95_inter_frame_ms=p95_if,
            p99_inter_frame_ms=p99_if,
            p95_responsiveness_ms=p95_resp,
            p99_responsiveness_ms=p99_resp,
            deadline_miss_rate=self.deadline_miss_rate(),
            drop_rate=self.drop_rate(),
            stale_frames=len(ages),
            mean_stale_age_ms=mean(ages) if ages else 0.0,
            max_stale_age_ms=max(ages) if ages else 0.0,
            fetch_retries=self.resilience.fetch_retries,
            fetches_abandoned=self.resilience.fetches_abandoned,
            rewarm_fetches=self.resilience.rewarm_fetches,
            spec_predictions=self.resilience.spec_predictions,
            spec_prefetches=self.resilience.spec_prefetches,
            spec_confirms=self.resilience.spec_confirms,
            spec_mispredictions=self.resilience.spec_mispredictions,
            spec_rollbacks=self.resilience.spec_rollbacks,
            spec_expired=self.resilience.spec_expired,
            desync_alarms=self.resilience.desync_alarms,
            desync_detection_ms=self.resilience.desync_detection_ms,
            resyncs=self.resilience.resyncs,
            resync_recovery_ms=self.resilience.resync_recovery_ms,
        )
