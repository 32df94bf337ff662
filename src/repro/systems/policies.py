"""Coterie's default-off features, each a self-contained policy.

A policy owns its per-slot state, is constructed only when its config is
set, and hooks itself into the stages of
:class:`~repro.systems.coterie.CoterieStrategy` it needs — so a clean run
constructs none, and its frame executes exactly the clean path's calls.
Each has ``reset(slot)``: a rejoining slot starts cold.

:class:`DisplayScorer` is the full-render SSIM scoring helper (not a
policy: it keeps no per-incarnation state).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..core.merger import layer_from_decoded
from ..core.online import SsimBatchQueue
from ..metrics import MetricsCollector
from ..predict import PosePredictor, PredictConfig
from ..render.rasterizer import merge_layers
from ..render.splitter import eye_at, reference_frame, render_fi, render_near_be
from ..session import SyncConfig, SyncValidator
from ..session.sync import CORRUPTION_MASK, state_digest
from ..sim import any_of
from ..trace import avatars_at
from .base import Session
from .loop import FrameOutcome


def fetch_with_retries(session: Session, player_id: int, frame_bytes: int, ev, blocking: bool):
    """Wait for a far-BE transfer with a timeout, abort and capped backoff.

    ``ev`` is the already-issued first attempt.  On timeout the attempt
    is withdrawn from the medium and re-issued with exponentially
    backed-off patience, capped, until the frame lands or the retry
    budget is spent — one interference burst cannot pile up transfers.
    ``blocking`` callers (warm-up, resync) have no display to keep at
    cadence and their retries are not traced; a background fetch marks
    each retry on the player's net lane.

    Generator returning ``(event, attempts)``; ``event`` is the landed
    transfer, or None when the fetch was abandoned.
    """
    sim = session.sim
    config = session.config
    resilience = session.collectors[player_id].resilience
    timeout_ms = config.fetch_timeout_ms
    for attempt in range(config.fetch_max_retries + 1):
        if attempt > 0:
            resilience.fetch_retries += 1
            if not blocking and session.tracer is not None:
                session.tracer.instant(
                    "fetch.retry", player_id, "net", sim.now,
                    args={"attempt": attempt, "bytes": frame_bytes},
                )
            ev = session.link.transfer(frame_bytes, tag="be")
        yield any_of(sim, [ev, sim.timeout(timeout_ms)])
        if not ev.triggered and session.link.abort(ev):
            timeout_ms = min(timeout_ms * 2.0, config.fetch_backoff_cap_ms)
            continue
        if not ev.triggered:
            # Completion raced the timeout (e.g. mid-jitter); the event
            # is about to fire — wait it out.
            yield ev
        return ev, attempt + 1
    resilience.fetches_abandoned += 1
    return None, config.fetch_max_retries + 1


class Degradation:
    """Graceful degradation (on when the session config enables
    impairment, faults, adaptation, or an explicit prefetch deadline).

    * Each prefetch races a **deadline** derived from the frame budget
      (Eq. 2: budget minus merge); a fetch that loses the race does not
      stall the display — the client shows the *nearest cached* far-BE
      panorama instead (frame similarity, §4.6, keeps a nearby stale
      frame perceptually close) and records the stale age;
    * the late fetch continues in the **background** with a timeout and
      capped exponential-backoff retries (:func:`fetch_with_retries`);
    * after a scripted disconnect the client **re-warms** its cache with
      a blocking fetch on reconnect before resuming its normal cadence.
    """

    def __init__(self, strategy) -> None:
        self.strategy = strategy
        self.session = strategy.session
        n_slots = self.session.total_slots
        # The in-flight background fetch's token (at most one per player
        # — a second would just contend with the first; None: none), and
        # a pending cache re-warm after a reconnect.
        self.pending_fetch: List[Optional[object]] = [None] * n_slots
        self.needs_rewarm = [False] * n_slots
        strategy.display = self.display
        strategy.reconnected = self.reconnected
        if strategy.abr is not None:
            strategy.pre_plan.append(self.throttle)

    def reset(self, slot: int) -> None:
        """Disown the previous life's background fetch (it finds its
        token gone and withdraws) and forget its re-warm."""
        self.pending_fetch[slot] = None
        self.needs_rewarm[slot] = False

    def reconnected(self, player_id: int) -> None:
        """Re-warm the cache before the cadence resumes."""
        self.needs_rewarm[player_id] = True

    def throttle(self, player_id: int, t0: float, sample) -> None:
        """Widen the prefetcher's acceptance band while the ladder is
        degraded — *before* plan(), so this frame's lookup already
        reflects the chosen rung."""
        strategy = self.strategy
        strategy.prefetchers[player_id].thresh_scale = strategy.abr[player_id].thresh_scale()

    def display(self, player_id: int, t0: float, decision, out: FrameOutcome):
        """Resolve the frame's far-BE entry without ever stalling the
        display on a late transfer (generator returning the entry)."""
        strategy = self.strategy
        session = self.session
        sim = session.sim
        if not decision.needs_fetch and strategy.use_cache:
            self.needs_rewarm[player_id] = False
            return decision.cached
        cache = strategy.caches[player_id]
        controller = strategy.abr[player_id] if strategy.abr is not None else None
        if self.pending_fetch[player_id] is not None:
            # Still recovering a late fetch: display the nearest stale
            # frame, issue nothing new.
            out.deadline_missed = True
            cached = cache.nearest(decision.position, now_ms=t0)
            if cached is not None:
                out.stale_age_ms = t0 - cached.inserted_ms
            return cached
        if (
            controller is not None
            and not self.needs_rewarm[player_id]
            and len(cache) > 0
            and controller.should_drop(t0, controller.scaled_bytes(controller.nominal_bytes))
        ):
            # App-layer drop: the forecast says this fetch cannot land
            # anywhere near the deadline, so the transfer is never issued
            # (no server render, no medium load) and the nearest cached
            # panorama displays instead.  A chosen degradation — not a
            # deadline miss.
            out.dropped = True
            cached = cache.nearest(decision.position, now_ms=t0)
            out.stale_age_ms = t0 - cached.inserted_ms
            return cached
        stored = strategy.store.frame_for(decision.grid_point)
        frame_bytes = stored.wire_bytes
        if controller is not None:
            # Re-encode at the current rung: the ladder only changes the
            # wire size (§4.5's CRF staircase).
            frame_bytes = controller.scaled_bytes(frame_bytes)
        out.frame_bytes = frame_bytes
        stall_ms = session.faults.server_stall_ms(t0)
        if stall_ms > 0:
            yield stall_ms
        transfer_ev = session.link.transfer(frame_bytes, tag="be")
        if self.needs_rewarm[player_id]:
            # Reconnect re-warm: block on this fetch so the cache is
            # fresh before the cadence resumes.
            self.needs_rewarm[player_id] = False
            session.collectors[player_id].resilience.rewarm_fetches += 1
            if session.tracer is not None:
                session.tracer.instant(
                    "fetch.rewarm", player_id, "net", sim.now, args={"bytes": frame_bytes}
                )
        else:
            deadline = session.prefetch_deadline_ms()
            yield any_of(sim, [transfer_ev, sim.timeout(deadline)])
            if transfer_ev.triggered:
                out.transfer_ms = stall_ms + transfer_ev.value
                return self._landed(player_id, decision, stored, frame_bytes, transfer_ev.value)
            out.deadline_missed = True
            fallback = cache.nearest(decision.position, now_ms=sim.now)
            if fallback is not None:
                # Stale-frame fallback: keep the display at cadence,
                # finish the fetch off-path.
                out.stale_age_ms = t0 - fallback.inserted_ms
                out.transfer_ms = stall_ms + deadline
                token = self.pending_fetch[player_id] = object()
                sim.spawn(
                    self._background(player_id, token, decision, stored, frame_bytes, transfer_ev)
                )
                return fallback
            # Nothing cached to show (cold start): the display has to
            # wait for the fetch.
        out.transfer_ms = stall_ms + (yield transfer_ev)
        return self._landed(player_id, decision, stored, frame_bytes, out.transfer_ms - stall_ms)

    def _landed(self, player_id: int, decision, stored, frame_bytes: int, wire_ms: float):
        """Feed the rate estimator and admit a transfer that just landed."""
        strategy = self.strategy
        now = self.session.sim.now
        if strategy.abr is not None:
            strategy.abr[player_id].observe_transfer(now, frame_bytes, wire_ms)
        return strategy.admit(decision, stored, frame_bytes, now, player_id)

    def _background(self, player_id: int, token, decision, stored, frame_bytes: int, first_ev):
        """Finish a deadline-missed fetch off the display's critical path."""
        session = self.session
        started_ms = session.sim.now
        ev, attempts = yield from fetch_with_retries(
            session, player_id, frame_bytes, first_ev, blocking=False
        )
        if self.pending_fetch[player_id] is not token:
            # The slot rejoined mid-transfer: this fetch belongs to a dead
            # incarnation.  Withdraw quietly — no admission into the new
            # life's cache, and its pending flag is not ours to clear.
            return
        if ev is not None:
            self._landed(player_id, decision, stored, frame_bytes, ev.value)
        self.pending_fetch[player_id] = None
        if session.tracer is not None:
            session.tracer.complete(
                "fetch.background" if ev is not None else "fetch.abandoned",
                player_id, "net", started_ms, session.sim.now - started_ms, cat="net",
                args={"attempts": attempts, "bytes": frame_bytes},
            )


class Speculation:
    """Forecast the viewport a few frames out and prefetch it on spec.

    Per-slot predictors; background transfers land speculative-tagged,
    digest-stamped cache entries, and a lookup that returns one must
    validate it against the float64 oracle before the display may trust
    it (confirm, or roll back and re-plan).
    """

    def __init__(self, strategy, config: PredictConfig) -> None:
        self.strategy = strategy
        self.session = strategy.session
        self.config = config
        n_slots = self.session.total_slots
        self.predictors = [PosePredictor(config) for _ in range(n_slots)]
        # The in-flight speculative fetch's token (at most one per player;
        # None: none).
        self.spec_pending: List[Optional[object]] = [None] * n_slots
        strategy.pre_plan.append(self.observe)
        strategy.post_plan.append(self.validate)
        strategy.post_fetch.append(self.speculate)
        strategy.on_finish.append(self.stamp_stats)

    def reset(self, slot: int) -> None:
        """A rejoiner must not inherit the dead life's velocity state;
        its in-flight speculative fetch finds its token gone and withdraws."""
        self.predictors[slot] = PosePredictor(self.config)
        self.spec_pending[slot] = None

    def observe(self, player_id: int, t0: float, sample) -> None:
        """Feed the predictor (unless a scripted stale-speculation storm
        froze its observations) and age out unconfirmed speculative
        entries before this frame's lookup."""
        session = self.session
        if not session.faults.speculation_frozen(player_id, t0):
            self.predictors[player_id].observe(t0, sample.position, sample.heading)
        expired = self.strategy.caches[player_id].expire_speculative(
            t0, self.config.speculative_ttl_ms
        )
        if expired:
            if session.tracer is not None:
                session.tracer.instant(
                    "predict.expired", player_id, "cache", t0, cat="predict",
                    args={"entries": expired},
                )

    def validate(self, player_id: int, t0: float, sample, decision):
        """Rollback discipline: on a digest mismatch the speculative entry
        is rolled back and the plan re-runs on confirmed state only,
        converging on exactly what an on-demand fetch would have displayed
        (the digest equality *is* the convergence assertion)."""
        strategy = self.strategy
        cache = strategy.caches[player_id]
        resilience = self.session.collectors[player_id].resilience
        while decision.cached is not None and decision.cached.speculative:
            spec_frame = decision.cached
            if spec_frame.digest == strategy.oracle_digest(spec_frame.grid_point):
                cache.confirm(spec_frame)
                resilience.spec_confirms += 1
                break
            cache.discard(spec_frame)
            resilience.spec_rollbacks += 1
            if self.session.tracer is not None:
                self.session.tracer.instant(
                    "predict.rollback", player_id, "cache", t0, cat="predict",
                    args={"grid": list(spec_frame.grid_point)},
                )
            decision = strategy.prefetchers[player_id].plan(sample.position, sample.heading, t0)
        return decision

    def speculate(self, player_id: int, t0: float, sample, decision, out: FrameOutcome) -> None:
        """When the predictor is confident and the forecast grid point is
        not already covered, start a best-effort speculative transfer off
        the display's critical path."""
        if self.spec_pending[player_id] is not None:
            return
        prediction = self.predictors[player_id].predict(t0)
        if prediction is None or prediction.confidence_m > self.config.max_confidence_m:
            return
        session = self.session
        spec_decision = self.strategy.prefetchers[player_id].plan_speculative(
            prediction.position, prediction.heading, t0
        )
        if spec_decision.cached is not None:
            return
        token = self.spec_pending[player_id] = object()
        session.collectors[player_id].resilience.spec_prefetches += 1
        if session.tracer is not None:
            session.tracer.instant(
                "predict.speculate", player_id, "net", t0, cat="predict",
                args={
                    "grid": list(spec_decision.grid_point),
                    "confidence_m": round(prediction.confidence_m, 4),
                },
            )
        session.sim.spawn(self._fetch(player_id, token, spec_decision))

    def _fetch(self, player_id: int, token, decision):
        """Best-effort transfer of a forecast grid point's panorama.

        No retries — a speculative transfer is cheap to lose.  The entry
        lands tagged speculative with its oracle digest stamped
        (perturbed during a scripted ``speccorrupt`` window, so
        validation must catch it before anything displays from it).  A
        fetch whose token is gone (the slot rejoined mid-flight: its cache
        was cleared and any pending token belongs to the new life)
        withdraws without admitting.
        """
        strategy = self.strategy
        session = self.session
        stored = strategy.store.frame_for(decision.grid_point)
        frame_bytes = stored.wire_bytes
        yield session.link.transfer(frame_bytes, tag="be")
        if self.spec_pending[player_id] is not token:
            return  # incarnation changed mid-transfer; stale admission
        now = session.sim.now
        digest = strategy.oracle_digest(decision.grid_point)
        if session.faults.speculation_corrupted(player_id, now):
            digest ^= CORRUPTION_MASK
        strategy.prefetchers[player_id].admit(
            decision, stored, frame_bytes, now,
            origin_player=player_id, speculative=True, digest=digest,
        )
        self.spec_pending[player_id] = None
        if session.tracer is not None:
            session.tracer.instant(
                "predict.landed", player_id, "net", now, cat="predict",
                args={"grid": list(decision.grid_point), "bytes": frame_bytes},
            )

    def stamp_stats(self) -> None:
        """Stamp predictor / cache speculation outcomes into the per-slot
        resilience stats so ``collector.summary()`` reports them."""
        for slot, predictor in enumerate(self.predictors):
            resilience = self.session.collectors[slot].resilience
            resilience.spec_predictions = predictor.predictions
            resilience.spec_mispredictions = predictor.mispredictions
            resilience.spec_expired = self.strategy.caches[slot].stats.speculative_expired


class SyncCheck:
    """A fixed-cadence digest exchange over the PUN channel; a peer whose
    state hash diverges is re-warmed from authoritative state."""

    def __init__(self, strategy, config: SyncConfig) -> None:
        self.strategy = strategy
        session = self.session = strategy.session
        n_slots = session.total_slots
        # (t_ms, x, y, heading, displayed-frame digest) per slot — the
        # authoritative inputs to each peer's per-round state hash.
        self.last_display = [(0.0, 0.0, 0.0, 0.0, 0)] * n_slots
        self.needs_resync = [False] * n_slots
        self.validator = SyncValidator(
            sim=session.sim,
            config=config,
            horizon_ms=session.horizon_ms,
            n_slots=n_slots,
            roster=strategy.roster,
            # Recompute one peer's state hash from live session state.
            authoritative=lambda slot: state_digest(
                *self.last_display[slot], strategy.caches[slot], slot
            ),
            injected_at=session.faults.desync_event_ms,
            # Digest-exchange traffic is accounted as FI-class datagrams.
            record_bytes=lambda nbytes: session.link.record_datagram(nbytes, tag="fi"),
            request_resync=self.request_resync,
            tracer=session.tracer,
        )
        session.sim.spawn(self.validator.process())
        strategy.before_frame = self.repair
        strategy.post_fetch.append(self.displayed)
        strategy.on_finish.append(self.stamp_stats)

    def reset(self, slot: int) -> None:
        """A new incarnation owes no repair for the old one's divergence,
        and has displayed nothing yet."""
        self.needs_resync[slot] = False
        self.last_display[slot] = (0.0, 0.0, 0.0, 0.0, 0)

    def request_resync(self, slot: int) -> None:
        """Flag a divergent peer for an authoritative re-warm."""
        self.needs_resync[slot] = True

    def displayed(self, player_id: int, t0: float, sample, decision, out: FrameOutcome) -> None:
        """The authoritative inputs to this peer's next exchanged state
        hash: the pose it displayed and the oracle digest of the frame it
        displayed it with."""
        self.last_display[player_id] = (
            t0, sample.position.x, sample.position.y, sample.heading,
            out.cached.digest if out.cached is not None else 0,
        )

    def repair(self, player_id: int):
        """Re-warm a desynced peer before its next frame displays anything.

        GGPO-style repair, reusing the retry/backoff fetch and the rejoin
        cache-repair discipline: every unconfirmed speculative entry is
        dropped, then the panorama for the player's *current* viewpoint
        is re-fetched and admitted with a fresh oracle digest.
        """
        if not self.needs_resync[player_id]:
            return
        self.needs_resync[player_id] = False
        strategy = self.strategy
        session = self.session
        now = session.sim.now
        strategy.caches[player_id].drop_speculative()
        sample = session.position_at(player_id, now)
        decision = strategy.prefetchers[player_id].plan_speculative(
            sample.position, sample.heading, now
        )
        stored = strategy.store.frame_for(decision.grid_point)
        if session.tracer is not None:
            session.tracer.instant(
                "sync.resync", player_id, "net", now, cat="sync",
                args={"grid": list(decision.grid_point), "bytes": stored.wire_bytes},
            )
        yield from strategy.blocking_fetch(player_id, decision, stored)

    def stamp_stats(self) -> None:
        """Stamp the validator's per-slot outcomes into the resilience stats."""
        for slot, slot_stats in enumerate(self.validator.stats):
            resilience = self.session.collectors[slot].resilience
            resilience.desync_alarms = slot_stats.alarms
            resilience.desync_detection_ms = slot_stats.max_detection_ms
            resilience.resyncs = slot_stats.resyncs
            resilience.resync_recovery_ms = slot_stats.recovery_ms


class DisplayScorer:
    """Full-fidelity SSIM scoring: far-BE switch SSIMs (the §7.4
    user-study model's input) and, every ``stride`` frames, the displayed
    frame against its all-local reference.

    SSIM scores feed only *metrics*, never simulated timing, so they
    are deferred: jobs queue during the simulation and compute in
    stacked :func:`repro.similarity.ssim_pairs` flushes (bit-identical
    to :func:`repro.similarity.ssim`, pair by pair).
    """

    def __init__(self, strategy, stride: int) -> None:
        self.strategy = strategy
        self.stride = stride
        session = self.session = strategy.session
        n_slots = session.total_slots
        self.switch_ssims: List[List[float]] = [[] for _ in range(n_slots)]
        self.last_far = [None] * n_slots
        # Submitted arrays (store payloads, freshly rendered/merged
        # frames) are owned, so submit-triggered flushes are safe.
        self.queue = SsimBatchQueue(batch_target=64)
        if session.tracer is not None:
            self.queue.on_flush = self._trace_flush
        strategy.on_finish.append(self.queue.flush)
        strategy.post_fetch.append(self.score)

    def _trace_flush(self, jobs: int) -> None:
        session = self.session
        session.tracer.instant(
            "ssim.batch_flush", 0, "render", session.sim.now, cat="kernel",
            args={"jobs": jobs, "queued_total": self.queue.jobs_total},
        )

    def score(self, player_id: int, t0: float, sample, decision, out: FrameOutcome) -> None:
        """Score this frame's far-BE switch and, on stride, its display."""
        payload = out.cached.payload if out.cached is not None else None
        far_image = payload.decoded if payload is not None else None
        if far_image is None:
            return
        last_far = self.last_far[player_id]
        if last_far is not None and far_image is not last_far:
            self.queue.submit(
                last_far, far_image, self.switch_ssims[player_id].append
            )
        self.last_far[player_id] = far_image
        if self.strategy.frame_index[player_id] % self.stride == 0:
            displayed, reference = self._frame_pair(player_id, sample, decision, far_image)
            out.after_record = lambda collector: self._score_later(
                collector, displayed, reference
            )

    def _score_later(self, collector: MetricsCollector, displayed, reference) -> None:
        """Queue the display score for the record just added.

        The record went in with ``displayed_ssim=None``; the flush patches
        the score in by index (FrameRecord is frozen).  Scores never steer
        the simulation, so patching after the fact is observationally
        identical.
        """
        records = collector.records
        index = len(records) - 1

        def patch(value) -> None:
            records[index] = replace(records[index], displayed_ssim=value)

        self.queue.submit(displayed, reference, patch)

    def _frame_pair(self, player_id: int, sample, decision, far_image):
        """The actually displayed frame and its all-local reference."""
        session = self.session
        world = session.world
        render_config = session.config.render_config
        eye = eye_at(world.scene, sample.position, world.spec.player.eye_height)
        roster = self.strategy.roster()
        positions = [
            session.position_at(other, session.sim.now).position for other in roster
        ]
        exclude = roster.index(player_id) if player_id in roster else -1
        avatars = avatars_at(world, positions, exclude_player=exclude)
        near = render_near_be(world.scene, eye, render_config, decision.cutoff_radius)
        fi_layer = render_fi(avatars, eye, render_config)
        displayed = merge_layers(layer_from_decoded(far_image), near, fi_layer)
        reference = reference_frame(world.scene, eye, render_config, avatars=avatars)
        return displayed, reference
