"""The Coterie system (§5): 3-layer rendering with far-BE frame caching.

Each client renders FI and near BE locally, decodes a prefetched panoramic
far-BE frame, and consults its frame cache before touching the network —
the cache absorbs ~80 % of prefetches (Table 6), which is what lets four
players share one 802.11ac link at a steady 60 FPS (Fig. 11).

Two fidelity modes:

* **emulated** (default) — frame *sizes* come from the calibrated size
  model and no pixels are rasterized; cache behaviour, latency, FPS,
  bandwidth, CPU/GPU are all exact (the cache outcome "is determined by
  the frame locations", §4.6).
* **full** (``config.render_frames``) — far-BE frames are really rendered,
  encoded, decoded, and merged with the locally rendered near BE and FI;
  displayed-frame SSIM against the all-local reference is sampled every
  ``ssim_stride`` frames, and far-BE switch SSIMs are recorded for the
  user-study model (Tables 7 and 10).

Graceful degradation, speculative prefetch and cross-peer sync validation
are default-off policies (:mod:`repro.systems.policies`) plugged into the
strategy's stage lists; with none configured the lists are empty and the
frame runs the clean path only.
"""

from __future__ import annotations

from typing import Callable, List

from ..core.cache import FrameCache
from ..core.constraint import satisfies_constraint
from ..core.prefetch import Prefetcher
from ..core.preprocess import OfflineArtifacts, PanoramaStore
from ..predict import stored_frame_digest
from ..world.games import GameWorld
from .base import RunResult, Session, SessionConfig
from .loop import FetchStrategy, FrameOutcome, run_clients
from .policies import (
    Degradation,
    DisplayScorer,
    Speculation,
    SyncCheck,
    fetch_with_retries,
)


class CoterieStrategy(FetchStrategy):
    """Fetch the far-BE panorama, behind the similarity cache.

    Per frame: ``pre_plan`` hooks → ``Prefetcher.plan`` → ``post_plan``
    hooks (may re-plan) → ``display`` (cache hit, or fetch) →
    ``post_fetch`` hooks → Eq. 2 pacing.  Policies hook themselves in
    when constructed.
    """

    stale_in_trace = True

    def __init__(
        self,
        session: Session,
        artifacts: OfflineArtifacts,
        use_cache: bool = True,
        ssim_stride: int = 25,
        overhear: bool = False,
    ) -> None:
        super().__init__(session)
        config = session.config
        world = session.world
        n_slots = session.total_slots
        self.artifacts = artifacts
        self.use_cache = use_cache
        self.overhear = overhear
        self.store = PanoramaStore(
            world,
            config.render_config,
            session.codec,
            cutoff_map=artifacts.cutoff_map,
            kind="far",
            eye_height=world.spec.player.eye_height,
            render_frames=config.render_frames,
            size_model=None if config.render_frames else artifacts.far_size_model,
            disk_cache=artifacts.disk_cache,
        )
        self.caches = [FrameCache() for _ in range(n_slots)]
        self.prefetchers = [
            Prefetcher(
                world.scene, world.grid, artifacts.cutoff_map, artifacts.dist_thresh_map, cache
            )
            for cache in self.caches
        ]
        observer = session.observer
        if observer is not None:
            for player_id, cache in enumerate(self.caches):
                observer.watch_cache(player_id, cache)
            observer.watch_store(self.store)
        # Closed-loop adaptation (None when config.adapt is off): per-slot
        # controllers stepping the CRF ladder, throttling the prefetcher,
        # and choosing app-layer frame drops.  The far-BE size-model mean
        # anchors the ladder forecast.
        self.abr = session.init_abr(artifacts.far_size_model.mean_bytes)
        # Digest stamping is needed by both speculation (oracle
        # validation) and sync validation (state hashes); the clean path
        # never computes one.
        self.stamp_digests = config.predict is not None or config.sync
        # Stage hooks (empty on a clean run) and the far-BE resolver; a
        # policy appends to / replaces these, and may replace
        # ``before_frame`` and ``reconnected`` the same way.
        self.pre_plan: List[Callable] = []
        self.post_plan: List[Callable] = []  # decision -> decision
        self.post_fetch: List[Callable] = []
        self.on_finish: List[Callable] = []
        self.display = self._display_clean
        self.policies: list = []
        if config.degraded_mode:
            self.policies.append(Degradation(self))
        if config.predict is not None:
            self.policies.append(Speculation(self, config.predict))
        sync_check = None
        if config.sync:
            sync_check = SyncCheck(self)
            self.policies.append(sync_check)
        if observer is not None and self.stamp_digests:
            observer.watch_speculation(self.caches, sync_check)
        self.scorer = DisplayScorer(self, ssim_stride) if config.render_frames else None

    # ------------------------------------------------------------------
    # Shared by the frame, the warm-up and the policies
    # ------------------------------------------------------------------

    def roster(self) -> List[int]:
        """Slots currently displaying (the fixed roster when unsupervised)."""
        supervisor = self.session.supervisor
        if supervisor is None:
            return list(range(self.session.n_players))
        return supervisor.active_slots()

    def oracle_digest(self, grid_point) -> int:
        """The float64 oracle hash of the frame the store serves now.

        ``PanoramaStore.frame_for`` is memoized and deterministic, so this
        is exactly what an on-demand (non-speculative) fetch of the same
        grid point would display — the convergence target the rollback
        path asserts against.
        """
        return stored_frame_digest(self.store.frame_for(grid_point), grid_point)

    def admit(self, decision, stored, frame_bytes: int, now_ms: float, player_id: int):
        """Admit a fetched frame into the player's cache.

        With ``overhear`` — the inter-player variant the paper evaluated
        and *rejected* (§4.6 Version 5) — every server reply is also
        mirrored into all other displaying players' caches.
        """
        digest = self.oracle_digest(decision.grid_point) if self.stamp_digests else 0
        cached = self.prefetchers[player_id].admit(
            decision, stored, frame_bytes, now_ms, origin_player=player_id, digest=digest
        )
        if self.overhear:
            for other in self.roster():
                if other != player_id:
                    self.prefetchers[other].admit(
                        decision, stored, frame_bytes, now_ms,
                        origin_player=player_id, digest=digest,
                    )
        return cached

    def blocking_fetch(self, player_id: int, decision, stored):
        """Fetch and admit one panorama off the display path (warm-up,
        resync): the joiner has no display to keep at cadence yet, so it
        simply waits — with the retry discipline — until the frame lands
        or the retry budget is spent."""
        session = self.session
        first_ev = session.link.transfer(stored.wire_bytes, tag="be")
        ev, _ = yield from fetch_with_retries(
            session, player_id, stored.wire_bytes, first_ev, blocking=True
        )
        if ev is not None:
            self.admit(decision, stored, stored.wire_bytes, session.sim.now, player_id)

    # ------------------------------------------------------------------
    # The frame
    # ------------------------------------------------------------------

    def frame(self, player_id: int, t0: float, sample):
        """Plan against the cache, fetch on a miss, pace through Eq. 2."""
        session = self.session
        for hook in self.pre_plan:
            hook(player_id, t0, sample)
        decision = self.prefetchers[player_id].plan(sample.position, sample.heading, t0)
        for hook in self.post_plan:
            decision = hook(player_id, t0, sample, decision)
        out = FrameOutcome()
        out.cached = yield from self.display(player_id, t0, decision, out)
        for hook in self.post_fetch:
            hook(player_id, t0, sample, decision, out)
        near_ms = session.cost_model.near_be_ms(
            session.world.scene, sample.position, decision.cutoff_radius
        )
        self.pace_pipeline(out, t0, near_ms)
        if self.use_cache:
            out.cache_hit = not decision.needs_fetch
        out.cache_label = (
            "bypass" if not self.use_cache
            else "hit" if out.cache_hit
            else "drop" if out.dropped
            else "stale" if out.stale_age_ms is not None
            else "fetch"
        )
        return out

    def _display_clean(self, player_id: int, t0: float, decision, out: FrameOutcome):
        """The clean path: a cache hit, or block on the fetch (generator
        returning the entry on display)."""
        if not decision.needs_fetch and self.use_cache:
            return decision.cached
        session = self.session
        stored = self.store.frame_for(decision.grid_point)
        out.frame_bytes = stored.wire_bytes
        out.transfer_ms = yield session.link.transfer(out.frame_bytes, tag="be")
        return self.admit(decision, stored, out.frame_bytes, t0, player_id)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def reset(self, slot: int) -> None:
        """The previous life's cache and every policy's slot state are stale."""
        self.caches[slot].clear()
        for policy in self.policies:
            policy.reset(slot)

    def warmup(self, player_id: int):
        """Late-joiner warm-up: stream the working set before ACTIVE.

        Fetches the panoramas the joiner's trajectory needs next (one
        grid point per upcoming display interval span) through the
        normal prefetch planner, so admission's promise — the player
        starts with a warm cache — is kept with real transfers on the
        shared link, not by fiat.
        """
        session = self.session
        sim = session.sim
        supervisor = session.supervisor
        prefetcher = self.prefetchers[player_id]
        lookahead_ms = 0.0
        for _ in range(supervisor.config.warmup_fetches):
            if not supervisor.poll(player_id):
                return None  # crashed / left / evicted mid-handshake
            sample = session.position_at(player_id, sim.now + lookahead_ms)
            decision = prefetcher.plan(sample.position, sample.heading, sim.now)
            lookahead_ms += 200.0
            if decision.needs_fetch:  # else: trajectory start revisits a cached point
                stored = self.store.frame_for(decision.grid_point)
                yield from self.blocking_fetch(player_id, decision, stored)
        return {"fetches": supervisor.config.warmup_fetches}

    def be_kbps_for(self, slot: int) -> float:
        """Dist-thresh fetch-rate estimate (Constraint 2's BE term).

        A player moving at ``speed`` re-fetches roughly every dist-thresh
        metres (§4.3): the reuse displacement at its current position
        bounds how far a cached panorama stays usable, so fetch rate ≈
        speed / dist_thresh, capped at one fetch per display interval.
        """
        session = self.session
        position = session.position_at(slot, session.sim.now).position
        thresh = max(self.artifacts.dist_thresh_map.threshold_for(position), 1e-3)
        speed = max(session.world.spec.player.speed, 1e-3)
        fetch_hz = min(60.0, speed / thresh)
        return fetch_hz * self.artifacts.far_size_model.mean_bytes * 8.0 / 1000.0

    def render_check(self, slot: int) -> bool:
        """Constraint 1 at the joiner's spawn region."""
        session = self.session
        position = session.position_at(slot, session.sim.now).position
        cutoff = self.artifacts.cutoff_map.cutoff_for(position)
        return satisfies_constraint(
            session.cost_model, session.world.scene, position, cutoff, self.artifacts.budget
        )


def run_coterie(
    world: GameWorld,
    n_players: int,
    config: SessionConfig,
    artifacts: OfflineArtifacts,
    use_cache: bool = True,
    ssim_stride: int = 25,
    overhear: bool = False,
) -> RunResult:
    """Simulate N Coterie players sharing one WiFi link.

    ``use_cache`` False gives Fig. 11's "Coterie w/o cache" variant: far-BE
    frames are still smaller than whole-BE frames, but every interval
    fetches from the server.

    ``overhear`` enables the inter-player variant the paper evaluated and
    *rejected* (§4.6 Version 5): every server reply is overheard and
    admitted into all players' caches.  Kept as an extension so the
    "adds almost nothing over self-reuse" conclusion is testable at the
    full-system level.
    """
    if ssim_stride < 1:
        raise ValueError("ssim_stride must be >= 1")
    session = Session(world, n_players, config)
    strategy = CoterieStrategy(session, artifacts, use_cache, ssim_stride, overhear)
    run_clients(session, strategy)
    for hook in strategy.on_finish:
        hook()
    name = "coterie" if use_cache else "coterie_nocache"
    if overhear:
        name = "coterie_overhear"
    return session.finish(
        name,
        switch_ssims=strategy.scorer.switch_ssims if strategy.scorer is not None else None,
        decoding=True,
        cache_enabled=use_cache,
    )
