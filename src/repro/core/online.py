"""The batched online frame loop (decode → cache → SSIM → merge → display).

Coterie's online hot path runs the same per-frame work for every player in
the session.  The scalar path handles one player at a time with float64
frames — it is the bit-identity oracle.  The batched path stacks all
players' work into single numpy passes over tiled float32 frame layouts:

* **decode** — all cache-missing far-BE frames of a tick decode in one
  :meth:`repro.codec.FrameCodec.decode_batch` call (stacked dequantize,
  einsum IDCT, strided block join);
* **cache** — candidate scoring runs over the vectorized scan index
  (``FrameCache.vector_scan``);
* **merge** — display frames compose into one preallocated float32 stack
  (:func:`repro.core.merger.compose_display_into`);
* **SSIM** — all players' displayed-vs-reference scores compute in one
  :func:`repro.similarity.ssim_pairs` pass;
* **intervals** — the frame-interval clamp vectorizes across players
  (:func:`repro.core.pipeline.frame_intervals_ms`).

Both paths fold displayed bytes, SSIM values, and intervals into one
sha256 digest — equal digests prove the batched path is bit-identical.

:class:`SsimBatchQueue` carries the same batching into the discrete-event
systems (:mod:`repro.systems.coterie`): SSIM jobs whose results only feed
*metrics* (never simulated timing) are queued during the simulation and
computed in stacked passes at flush points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .. import perf
from ..codec.h264like import EncodedFrame, FrameCodec
from ..geometry import GridPoint, Vec2
from ..render.rasterizer import Layer
from ..similarity import ssim, ssim_pairs
from .cache import CachedFrame, FrameCache
from .merger import compose_display, compose_display_into
from .pipeline import (
    PipelineTimings,
    batched_frame_intervals_ms,
    frame_interval_ms,
)

REFRESH_INTERVAL_MS = 1000.0 / 60.0


@dataclass(frozen=True)
class PlayerFrameInput:
    """One player's inputs for one tick of the online loop."""

    grid_point: GridPoint
    position: Vec2
    leaf: Any  # LeafKey
    near_ids: FrozenSet[int]
    dist_thresh: float
    encoded: EncodedFrame  # far-BE payload, decoded on a cache miss
    wire_bytes: int
    near_layer: Layer
    fi_layer: Optional[Layer]
    reference: np.ndarray  # all-local frame for displayed-SSIM ticks


@dataclass
class OnlineRunResult:
    """One mode's pass over the tick schedule."""

    batched: bool
    frames: int
    fetches: int
    cache_hits: int
    ssim_values: List[float]
    interval_sum_ms: float
    digest: str

    def metrics(self) -> Dict[str, Any]:
        """Cross-mode comparable session metrics (must be bit-identical)."""
        return {
            "frames": self.frames,
            "fetches": self.fetches,
            "cache_hits": self.cache_hits,
            "ssim_values": list(self.ssim_values),
            "interval_sum_ms": self.interval_sum_ms,
            "digest": self.digest,
        }


@dataclass
class OnlineFrameLoop:
    """Replayable multi-player online frame loop.

    ``ticks[t][p]`` is player ``p``'s :class:`PlayerFrameInput` at tick
    ``t``.  :meth:`run` replays the schedule through either the scalar
    oracle or the batched kernels; the digest and metrics of both runs
    must match exactly.  Device-model latencies are fixed constants — the
    engine measures *host* throughput, the latencies only exercise the
    interval math identically in both modes.
    """

    ticks: Sequence[Sequence[PlayerFrameInput]]
    cache_capacity_bytes: int = 512 * 1024 * 1024
    ssim_stride: int = 1
    ssim_batch_target: int = 64
    link_mbps: float = 600.0
    fi_ms: float = 3.0
    near_ms: float = 4.0
    decode_ms: float = 3.7
    sync_ms: float = 1.0
    merge_ms: float = 1.0
    setup_ms: float = 0.5
    codec: FrameCodec = field(default_factory=FrameCodec)

    def __post_init__(self) -> None:
        if self.ssim_stride < 1:
            raise ValueError("ssim_stride must be >= 1")
        if self.link_mbps <= 0:
            raise ValueError("link_mbps must be positive")

    # ------------------------------------------------------------------

    def _prefetch_ms(self, wire_bytes: int) -> float:
        return wire_bytes * 8.0 / (self.link_mbps * 1000.0)

    def _timings(self, fetched: bool, wire_bytes: int) -> PipelineTimings:
        return PipelineTimings(
            render_fi_ms=self.fi_ms,
            render_near_be_ms=self.near_ms,
            decode_ms=self.decode_ms,
            prefetch_ms=self._prefetch_ms(wire_bytes) if fetched else 0.0,
            sync_ms=self.sync_ms,
            merge_ms=self.merge_ms,
            setup_ms=self.setup_ms,
        )

    def _lookup(
        self, cache: FrameCache, inp: PlayerFrameInput, now_ms: float
    ) -> Optional[CachedFrame]:
        return cache.lookup(
            grid_point=inp.grid_point,
            position=inp.position,
            leaf=inp.leaf,
            near_ids=inp.near_ids,
            dist_thresh=inp.dist_thresh,
            now_ms=now_ms,
        )

    def _admit(
        self,
        cache: FrameCache,
        inp: PlayerFrameInput,
        decoded: np.ndarray,
        now_ms: float,
    ) -> CachedFrame:
        frame = CachedFrame(
            grid_point=inp.grid_point,
            position=inp.position,
            leaf=inp.leaf,
            near_ids=inp.near_ids,
            payload=decoded,
            size_bytes=inp.wire_bytes,
            inserted_ms=now_ms,
            last_used_ms=now_ms,
        )
        cache.insert(frame)
        return frame

    # ------------------------------------------------------------------

    def run(self, batched: bool = False) -> OnlineRunResult:
        """Replay the schedule; ``batched`` selects the kernel path."""
        n_players = len(self.ticks[0]) if self.ticks else 0
        caches = [
            FrameCache(capacity_bytes=self.cache_capacity_bytes)
            for _ in range(n_players)
        ]
        queue = None
        if batched:
            for cache in caches:
                cache.vector_scan = True
            # Displayed-SSIM only feeds metrics, never control flow, so the
            # batched path defers it: jobs accumulate across ticks and
            # compute in stacks far wider than one tick's player count.
            # The flush is driven at tick boundaries below (never from
            # inside submit).
            queue = SsimBatchQueue(
                batch_target=self.ssim_batch_target + len(self.ticks[0]),
            )
        digest = hashlib.sha256()
        ssim_values: List[float] = []
        frames = 0
        interval_sum = 0.0
        for tick_index, tick in enumerate(self.ticks):
            now_ms = tick_index * REFRESH_INTERVAL_MS
            ssim_tick = tick_index % self.ssim_stride == 0
            if batched:
                intervals = self._run_tick_batched(
                    caches, tick, now_ms, ssim_tick, queue, digest, ssim_values
                )
            else:
                intervals = self._run_tick_scalar(
                    caches, tick, now_ms, ssim_tick, digest, ssim_values
                )
            digest.update(intervals.tobytes())
            interval_sum += float(intervals.sum())
            frames += len(tick)
        if queue is not None:
            queue.flush()
        # SSIM values fold in after the ticks — submission order, which
        # both paths share — so deferral cannot reorder the digest.
        for value in ssim_values:
            digest.update(np.float64(value).tobytes())
        hits = sum(cache.stats.hits for cache in caches)
        fetches = sum(cache.stats.misses for cache in caches)
        return OnlineRunResult(
            batched=batched,
            frames=frames,
            fetches=fetches,
            cache_hits=hits,
            ssim_values=ssim_values,
            interval_sum_ms=interval_sum,
            digest=digest.hexdigest(),
        )

    # -- scalar oracle -------------------------------------------------

    def _run_tick_scalar(
        self, caches, tick, now_ms, ssim_tick, digest, ssim_values
    ) -> np.ndarray:
        displayed_frames = []
        timings = []
        for player, inp in enumerate(tick):
            cached = self._lookup(caches[player], inp, now_ms)
            fetched = cached is None
            if fetched:
                decoded = self.codec.decode(inp.encoded)
                cached = self._admit(caches[player], inp, decoded, now_ms)
            displayed = compose_display(
                cached.payload, inp.near_layer, inp.fi_layer
            )
            digest.update(displayed.tobytes())
            displayed_frames.append(displayed)
            timings.append(self._timings(fetched, inp.wire_bytes))
        if ssim_tick:
            for player, inp in enumerate(tick):
                value = ssim(displayed_frames[player], inp.reference)
                ssim_values.append(float(value))
        return np.fromiter(
            (frame_interval_ms(t) for t in timings),
            dtype=np.float64,
            count=len(timings),
        )

    # -- batched kernels -----------------------------------------------

    def _run_tick_batched(
        self, caches, tick, now_ms, ssim_tick, queue, digest, ssim_values
    ) -> np.ndarray:
        lookups = [
            self._lookup(caches[player], inp, now_ms)
            for player, inp in enumerate(tick)
        ]
        missing = [p for p, cached in enumerate(lookups) if cached is None]
        if missing:
            decoded_stack = self.codec.decode_batch(
                [tick[p].encoded for p in missing]
            )
            for p, decoded in zip(missing, decoded_stack):
                lookups[p] = self._admit(caches[p], tick[p], decoded, now_ms)
        perf.count("online.batch_ticks")
        perf.count("online.players_per_batch", len(tick))
        far_frames = [cached.payload for cached in lookups]
        shapes = {far.shape for far in far_frames}
        if len(shapes) == 1:
            # Uniform frame shape: compose every player into one
            # contiguous (N, H, W) stack and fold its bytes into the
            # digest in a single update — sha256 streams, so hashing the
            # stack equals hashing each row in player order.
            stack = np.empty((len(tick), *shapes.pop()), dtype=np.float32)
            displayed_frames = [
                compose_display_into(
                    stack[player], far_frames[player],
                    inp.near_layer, inp.fi_layer,
                )
                for player, inp in enumerate(tick)
            ]
            digest.update(stack.tobytes())
        else:
            displayed_frames = []
            for player, inp in enumerate(tick):
                displayed = compose_display_into(
                    np.empty(far_frames[player].shape, dtype=np.float32),
                    far_frames[player],
                    inp.near_layer, inp.fi_layer,
                )
                digest.update(displayed.tobytes())
                displayed_frames.append(displayed)
        if ssim_tick:
            for player, inp in enumerate(tick):
                queue.submit(
                    displayed_frames[player], inp.reference, ssim_values.append
                )
        if len(queue) >= self.ssim_batch_target:
            queue.flush()
        prefetch = np.zeros(len(tick), dtype=np.float64)
        for p in missing:
            prefetch[p] = self._prefetch_ms(tick[p].wire_bytes)
        return batched_frame_intervals_ms(
            prefetch,
            render_ms=self.setup_ms + self.fi_ms + self.near_ms,
            decode_ms=self.decode_ms,
            sync_ms=self.sync_ms,
            merge_ms=self.merge_ms,
        )


class SsimBatchQueue:
    """Deferred SSIM jobs, computed in stacked tiled-kernel flushes.

    The discrete-event clients record SSIM-derived *metrics* (far-BE
    switch discontinuity, displayed-frame quality) whose values never
    influence simulated timing — so the pixel math is deferred: ``submit``
    queues ``(a, b, callback)`` and flushes compute all queued scores via
    :func:`repro.similarity.ssim_pairs`, grouped by frame shape, then
    dispatch callbacks in submission order.  Scores are bit-identical to
    inline ``ssim(a, b)`` calls; submitted arrays must not be mutated
    before the flush.
    """

    def __init__(self, batch_target: int = 16) -> None:
        if batch_target < 1:
            raise ValueError("batch_target must be >= 1")
        self.batch_target = batch_target
        self.jobs_total = 0
        self.flushes = 0
        # Set by the owning system to observe flushes (tracer instants).
        self.on_flush: Optional[Callable[[int], None]] = None
        self._jobs: List[
            Tuple[np.ndarray, np.ndarray, Callable[[float], None]]
        ] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def submit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        callback: Callable[[float], None],
    ) -> None:
        """Queue one SSIM job; flushes when the batch target fills."""
        self._jobs.append((a, b, callback))
        self.jobs_total += 1
        if len(self._jobs) >= self.batch_target:
            self.flush()

    def flush(self) -> None:
        """Compute all queued scores and dispatch their callbacks."""
        if not self._jobs:
            return
        jobs, self._jobs = self._jobs, []
        self.flushes += 1
        groups: Dict[tuple, List[int]] = {}
        for index, (a, _b, _cb) in enumerate(jobs):
            groups.setdefault(a.shape, []).append(index)
        scores: List[float] = [0.0] * len(jobs)
        for indices in groups.values():
            values = ssim_pairs([(jobs[i][0], jobs[i][1]) for i in indices])
            for i, value in zip(indices, values):
                scores[i] = float(value)
        perf.count("online.ssim_jobs", len(jobs))
        perf.count("online.ssim_flushes")
        if self.on_flush is not None:
            self.on_flush(len(jobs))
        for (_a, _b, callback), value in zip(jobs, scores):
            callback(value)
