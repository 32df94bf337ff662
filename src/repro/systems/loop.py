"""The one client frame loop, shared by all four systems (§5, Eq. 2).

Every system's client is the same pipeline — sample pose, fetch, decode ‖
render ‖ sync, merge, display — and they differ only in *what is
fetched*.  :func:`run_clients` is that pipeline; a :class:`FetchStrategy`
per system supplies the fetch and returns the frame's
:class:`FrameOutcome`.

Loop stages, per client process (DESIGN.md §2 "Frame loop"): seat (fixed
roster, or the supervisor's spawn: a rejoining slot is ``reset`` first,
a WARMING one runs the strategy's ``warmup``) → ``supervisor.poll`` →
outage pause (then ``strategy.reconnected``) → ``strategy.before_frame``
→ ``t0`` → ABR ``on_frame`` → ``position_at`` → ``outcome = yield from
strategy.frame(...)`` (dropped, and the client exits, if the slot was
evicted meanwhile) → one ``FrameRecord`` → collector →
``out.after_record`` → ``note_frame`` → ``observer.frame`` → yield the
rest of the display interval.

``session.observer`` (``None`` unless a tracer or a metrics hub is
configured) is the only telemetry object the loop knows; the strategy's
``pace_*`` call lays the frame out on ``FrameOutcome.layout`` for it.

**Order is the contract.**  Bit-identical results rest on the order of
``link.transfer`` / ``sim.timeout`` / ``sim.spawn`` / ``any_of`` calls and
RNG draws within a frame, and on the order of tracer and hub emissions.
Where the systems have always differed (the pipeline systems tick the FI
sync clock *before* drawing the sync latency, the sequential ones after
pacing the frame), each strategy keeps its own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from ..core.constraint import BandwidthBudget
from ..core.pipeline import PipelineTimings, frame_interval_ms
from ..metrics import FrameRecord, MetricsCollector
from ..session import DISPLAYING, WARMING, AdmissionController
from .base import MIN_YIELD_MS, SENSOR_SCANOUT_MS, Session


@dataclass
class FrameOutcome:
    """What one frame's fetch and pacing produced (strategy → loop)."""

    interval_ms: float = 0.0
    render_ms: float = 0.0
    responsiveness_ms: float = 0.0
    # Where the frame's time went: ``(lane, start_ms, duration_ms)`` per
    # stage in absolute sim time, the vsync ``wait`` last; a zero duration
    # means the stage did not run.  Set by ``pace_pipeline`` /
    # ``pace_sequential``.
    layout: Sequence[Tuple[str, float, float]] = ()
    transfer_ms: float = 0.0  # network delay on the frame's critical path
    frame_bytes: int = 0  # wire size of anything fetched this interval
    cache_hit: Optional[bool] = None  # None: no cache in play
    cache_label: Optional[str] = None  # the frame span's ``cache`` arg
    deadline_missed: bool = False
    stale_age_ms: Optional[float] = None
    dropped: bool = False
    cached: Any = None  # the cache entry on display (Coterie)
    # Called with the collector once the record is added (Coterie's
    # deferred SSIM scoring patches the record by index).
    after_record: Optional[Callable[[MetricsCollector], None]] = None


class FetchStrategy:
    """What one system fetches per frame; the loop does everything else.

    A strategy implements ``frame(player_id, t0, sample)`` — a generator
    that yields sim events and returns the :class:`FrameOutcome` — and,
    to run under a session supervisor, ``warmup(player_id)`` (the
    late-joiner handshake's transfers: a generator returning the
    ``warmup`` span's args, or None if the joiner died mid-handshake) and
    ``be_kbps_for(slot)`` (Constraint 2's BE term).  ``frame_index``
    is the per-slot frame counter the loop advances; what a rejoin resets
    is the strategy's call (:meth:`reset`).
    """

    #: False for a system with no network session: scripted outages do
    #: not pause it.
    networked = True
    #: Whether the frame span carries ``stale_age_ms`` (Coterie's stale
    #: fallback; whole-frame systems re-display without labelling it).
    stale_in_trace = False
    #: Constraint 1 at a joiner's spawn region, or None (no render split).
    render_check: Optional[Callable[[int], bool]] = None

    def __init__(self, session: Session) -> None:
        self.session = session
        self.frame_index = [0] * session.total_slots

    def before_frame(self, player_id: int):
        """Sim events to spend before the frame's pose is sampled."""
        return ()

    def reconnected(self, player_id: int) -> None:
        """The player's scripted outage just ended."""

    def reset(self, slot: int) -> None:
        """A new incarnation of ``slot`` starts cold (rejoin)."""

    def pace_pipeline(self, out: FrameOutcome, t0: float, near_be_ms: float) -> None:
        """Pace a split-rendering frame through Eq. 2.

        Ticks the FI sync clock, then draws this frame's sync latency —
        the order the pipeline systems have always used.  Layout: the four
        concurrent tasks (render, decode, prefetch, sync) all start at the
        interval origin, merge follows their max, and any remainder up to
        the display interval is the vsync wait.
        """
        session = self.session
        device = session.config.device
        session.pun.tick()
        timings = PipelineTimings(
            render_fi_ms=session.fi_ms,
            render_near_be_ms=near_be_ms,
            decode_ms=session.cost_model.decode_ms(3840, 2160),
            prefetch_ms=out.transfer_ms,
            sync_ms=session.pun.sync_latency_ms(),
            merge_ms=device.merge_ms,
            setup_ms=device.setup_ms,
        )
        out.interval_ms = frame_interval_ms(timings)
        out.render_ms = timings.render_ms - timings.setup_ms + timings.merge_ms
        split = timings.split_render_ms()
        out.responsiveness_ms = split + SENSOR_SCANOUT_MS
        out.layout = (
            ("render", t0, timings.render_ms),
            ("decode", t0, timings.decode_ms),
            ("prefetch", t0, timings.prefetch_ms),
            ("sync", t0, timings.sync_ms),
            ("merge", t0 + split - timings.merge_ms, timings.merge_ms),
            ("wait", t0 + split, _wait_ms(out.interval_ms - split)),
        )

    def pace_sequential(self, out: FrameOutcome, t0: float, latency_ms: float, stages) -> None:
        """Pace a frame whose ``stages`` — ordered ``(lane, duration_ms)``
        pairs — run end to end (no Eq. 2 overlap): the display shows it
        when it completes, never faster than vsync."""
        out.interval_ms = max(latency_ms, 1000.0 / 60.0)
        out.responsiveness_ms = latency_ms + SENSOR_SCANOUT_MS
        layout = []
        cursor = t0
        for lane, dur_ms in stages:
            layout.append((lane, cursor, dur_ms))
            cursor += dur_ms
        layout.append(("wait", cursor, _wait_ms(t0 + out.interval_ms - cursor)))
        out.layout = layout
        self.session.pun.tick()


def _wait_ms(remainder_ms: float) -> float:
    """The vsync wait closing a frame's layout; float residue of the
    interval arithmetic is no wait at all."""
    return remainder_ms if remainder_ms > 1e-9 else 0.0


def run_clients(session: Session, strategy: FetchStrategy) -> None:
    """Seat the players and run the simulation to the horizon."""
    sim = session.sim
    supervisor = session.supervisor
    observer = session.observer
    horizon_ms = session.horizon_ms
    # Only a networked system with scripted outages ever pauses.
    outages = strategy.networked and bool(session.faults.schedule.outages)
    frame_index = strategy.frame_index

    def client(player_id: int):
        collector = session.collectors[player_id]
        controller = session.abr[player_id] if session.abr is not None else None
        if supervisor is not None and supervisor.state(player_id) == WARMING:
            # Late-joiner handshake: real transfers on the shared link,
            # then the player enters the room.  A joiner that crashed,
            # left or was evicted mid-handshake never displays.
            started_ms = sim.now
            span_args = yield from strategy.warmup(player_id)
            if (
                span_args is None
                or not supervisor.poll(player_id)
                or not supervisor.activate(player_id)
            ):
                return
            if observer is not None:
                observer.warmup(player_id, started_ms, span_args)
        while sim.now < horizon_ms:
            if supervisor is not None and not supervisor.poll(player_id):
                return  # left, crashed, or evicted: no silent rejoin
            if outages:
                resume = session.faults.outage_resume_ms(player_id, sim.now)
                if resume is not None and resume > sim.now:
                    # Disconnected: no frames until the outage ends.
                    outage_start = sim.now
                    yield resume - sim.now
                    if observer is not None:
                        observer.outage(player_id, outage_start)
                    strategy.reconnected(player_id)
                    continue
            yield from strategy.before_frame(player_id)
            t0 = sim.now
            if controller is not None:
                # Ladder re-evaluation happens *before* the fetch so this
                # frame's transfer already reflects the chosen rung.
                controller.on_frame(t0)
            sample = session.position_at(player_id, t0)
            out = yield from strategy.frame(player_id, t0, sample)
            if supervisor is not None and supervisor.state(player_id) not in DISPLAYING:
                # Evicted while blocked in this frame's fetch (one transfer
                # outlasting evict_after_ms): the frame reaches no display.
                return
            interval = out.interval_ms
            record = FrameRecord(
                t_ms=t0 + interval,
                interval_ms=interval,
                render_ms=out.render_ms,
                responsiveness_ms=out.responsiveness_ms,
                net_delay_ms=out.transfer_ms,
                frame_bytes=out.frame_bytes,
                cache_hit=out.cache_hit,
                deadline_missed=out.deadline_missed,
                stale_age_ms=out.stale_age_ms,
                dropped=out.dropped,
            )
            collector.add(record)
            if out.after_record is not None:
                out.after_record(collector)
            if supervisor is not None:
                supervisor.note_frame(player_id, t0 + interval)
            if observer is not None:
                observer.frame(strategy, player_id, t0, record, out)
            frame_index[player_id] += 1
            remaining = interval - out.transfer_ms
            # Clamp to a minimum 1-tick yield: a transfer slower than the
            # interval must not let the loop re-enter at the same
            # simulated instant (busy-spin hazard).
            yield remaining if remaining > 0 else MIN_YIELD_MS

    if supervisor is None:
        for player_id in range(session.n_players):
            sim.spawn(client(player_id))
    else:
        admission = AdmissionController(
            budget=BandwidthBudget(capacity_mbps=session.config.wifi_mbps),
            be_kbps_for=strategy.be_kbps_for,
            fi_kbps_for=session.pun.expected_bandwidth_kbps,
            max_players=supervisor.config.max_players,
            render_check=strategy.render_check,
        )

        def spawn_client(slot: int, rejoining: bool) -> None:
            if rejoining:
                strategy.reset(slot)
            sim.spawn(client(slot))

        supervisor.start(spawn_client, admission)
    sim.run_until(horizon_ms)
