"""The closed-loop adaptation controller: CRF ladder, throttle, drops.

One :class:`AbrController` runs per client inside a system's frame loop.
Every completed transfer feeds its :class:`~repro.net.RateEstimator`;
every frame the controller re-evaluates three decisions against the
estimator's forecast of the *next* transfer's latency:

* **CRF ladder** — when the forecast crosses the high watermark of the
  prefetch deadline, the client steps one rung down the quality ladder
  (higher CRF, ~0.71x the bytes per +3 CRF, mirroring x264's quantizer
  staircase); when the forecast *at the next better rung* sits under the
  low watermark, it steps back up.  The watermark gap plus a dwell time
  is the hysteresis that prevents rung flapping on a noisy link.
* **Prefetch throttling** — while degraded (any rung below the base
  quality) the prefetcher's dist-thresh acceptance band is widened by
  ``PREFETCH_THROTTLE``, so more cached candidates serve in place of
  fetches: the client trades a little spatial fidelity for offered load,
  exactly Coterie's frame-similarity lever.
* **Frame dropping** — when even the forecast says a fetch cannot land
  inside ``DROP_MARGIN`` deadlines, the transfer is not issued at all;
  the client charges a stale-frame fallback (the PR 2
  ``FrameCache.nearest`` path) and stays at cadence.  Drops are *chosen*
  degradation and are accounted separately from deadline misses (which
  are reactive failures).  ``MAX_CONSECUTIVE_DROPS`` bounds the run: a
  forced real fetch refreshes the estimator so a stale forecast cannot
  pin a client in drop mode after the link recovers.

Determinism: decisions are pure functions of the observation stream —
no RNG, no wall clock — so a (trace, seed) replay reproduces every
step/drop bit-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..net.estimator import RateEstimator

if TYPE_CHECKING:
    from ..telemetry import SpanTracer

#: CRF-to-size staircase: wire bytes roughly halve every +6 CRF
#: (matching repro.codec.quant.quant_scale's doubling quantizer).
CRF_SIZE_HALVING = 6.0


def crf_size_scale(crf: float, base_crf: float) -> float:
    """Wire-size multiplier of encoding at ``crf`` instead of ``base_crf``."""
    return 2.0 ** (-(crf - base_crf) / CRF_SIZE_HALVING)


#: Quality ladder as CRF rungs, best (lowest CRF) first.  The session's
#: base CRF is inserted if absent, and the controller starts there.
LADDER: Tuple[float, ...] = (22.0, 25.0, 28.0, 31.0, 34.0, 37.0, 40.0)
#: Step down (worse quality) when forecast > HIGH_WATERMARK * deadline.
#: Tuned with the watermark sweep in E-R3: 0.9 reacts too late on the
#: bufferbloat ramp (the forecast crosses 0.9x deadline only after
#: misses already started); 0.75 beats fixed-CRF on all three traces.
HIGH_WATERMARK = 0.75
#: Step up when the forecast at the better rung < LOW_WATERMARK * deadline.
LOW_WATERMARK = 0.45
#: Minimum time between ladder steps (anti-flap dwell).
DWELL_MS = 200.0
#: Skip the transfer entirely when forecast >= DROP_MARGIN * deadline.
DROP_MARGIN = 1.4
#: Forced real fetch after this many back-to-back drops (estimator
#: refresh); the stale forecast problem, see module docstring.
MAX_CONSECUTIVE_DROPS = 3
#: Dist-thresh widening applied to the prefetcher while degraded.
PREFETCH_THROTTLE = 1.5


class AbrController:
    """Closed-loop per-client adaptation over one session."""

    def __init__(
        self,
        player_id: int,
        base_crf: float,
        deadline_ms: float,
        nominal_bytes: float,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if nominal_bytes <= 0:
            raise ValueError("nominal_bytes must be positive")
        self.player_id = player_id
        self.base_crf = base_crf
        self.deadline_ms = deadline_ms
        #: Typical wire size at base quality; the ladder forecast anchor.
        self.nominal_bytes = nominal_bytes
        self.tracer = tracer
        self.estimator = RateEstimator()
        ladder = sorted(set(LADDER) | {base_crf})
        self.ladder: Tuple[float, ...] = tuple(ladder)
        self._base_rung = self.ladder.index(base_crf)
        self.rung = self._base_rung
        self._last_step_ms = float("-inf")
        self._consecutive_drops = 0
        # Outcome accounting.
        self.steps_down = 0
        self.steps_up = 0
        self.drops = 0
        self.crf_timeline: List[Tuple[float, float]] = [(0.0, base_crf)]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def crf(self) -> float:
        """The CRF the client currently requests frames at."""
        return self.ladder[self.rung]

    @property
    def degraded(self) -> bool:
        """Whether the client sits below its base quality rung."""
        return self.rung > self._base_rung

    def size_scale(self, crf: Optional[float] = None) -> float:
        """Wire-size multiplier of the current (or given) rung."""
        return crf_size_scale(self.crf if crf is None else crf, self.base_crf)

    def scaled_bytes(self, size_bytes: float) -> int:
        """A base-quality wire size re-encoded at the current rung."""
        return max(1, int(round(size_bytes * self.size_scale())))

    def thresh_scale(self) -> float:
        """Dist-thresh widening the prefetcher should apply right now."""
        if self.degraded:
            return PREFETCH_THROTTLE
        return 1.0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def observe_transfer(
        self, now_ms: float, size_bytes: float, duration_ms: float
    ) -> None:
        """Feed one completed link transfer into the estimator."""
        self.estimator.observe(now_ms, size_bytes, duration_ms)
        self._consecutive_drops = 0

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def on_frame(self, now_ms: float) -> Optional[str]:
        """Re-evaluate the ladder once per frame; returns the step taken.

        Called at the top of the frame loop, before the fetch decision,
        so the chosen rung applies to this frame's transfer.
        """
        forecast = self.estimator.predict_transfer_ms(
            self.nominal_bytes * self.size_scale()
        )
        if forecast is None:
            return None  # estimator still warming up: hold the rung
        if now_ms - self._last_step_ms < DWELL_MS:
            return None
        if (
            forecast > HIGH_WATERMARK * self.deadline_ms
            and self.rung < len(self.ladder) - 1
        ):
            self.rung += 1
            self.steps_down += 1
            self._note_step(now_ms, "abr.step_down", forecast)
            return "down"
        if self.rung > self._base_rung:
            # Never exceed the session's configured base quality: rungs
            # *above* base (lower CRF in the ladder) only exist so other
            # sessions can start there; this client's contract is base.
            better = self.estimator.predict_transfer_ms(
                self.nominal_bytes * self.size_scale(self.ladder[self.rung - 1])
            )
            if better is not None and better < LOW_WATERMARK * self.deadline_ms:
                self.rung -= 1
                self.steps_up += 1
                self._note_step(now_ms, "abr.step_up", better)
                return "up"
        return None

    def should_drop(self, now_ms: float, size_bytes: float) -> bool:
        """Whether to skip this frame's transfer outright.

        True when the forecast says the fetch cannot land within
        ``DROP_MARGIN`` deadlines — unless the consecutive-drop cap forces
        a real fetch to refresh the estimator.  A True return is already
        accounted (drop counters, tracer instant); the caller must then
        actually skip the transfer and charge its stale fallback.
        """
        if self._consecutive_drops >= MAX_CONSECUTIVE_DROPS:
            return False
        forecast = self.estimator.predict_transfer_ms(size_bytes)
        if forecast is None or forecast < DROP_MARGIN * self.deadline_ms:
            return False
        self.drops += 1
        self._consecutive_drops += 1
        if self.tracer is not None:
            self.tracer.instant(
                "abr.drop", self.player_id, "abr", now_ms, cat="abr",
                args={"bytes": int(size_bytes),
                      "predicted_ms": round(forecast, 3),
                      "deadline_ms": round(self.deadline_ms, 3),
                      "consecutive": self._consecutive_drops},
            )
        return True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _note_step(self, now_ms: float, event: str, forecast: float) -> None:
        self._last_step_ms = now_ms
        self.crf_timeline.append((now_ms, self.crf))
        if self.tracer is not None:
            self.tracer.instant(
                event, self.player_id, "abr", now_ms, cat="abr",
                args={"crf": self.crf,
                      "predicted_ms": round(forecast, 3),
                      "deadline_ms": round(self.deadline_ms, 3)},
            )

    def mean_crf(self, end_ms: float) -> float:
        """Time-weighted mean CRF over [0, end_ms]."""
        if end_ms <= 0:
            return self.base_crf
        total = 0.0
        for i, (start_ms, crf) in enumerate(self.crf_timeline):
            stop_ms = (
                self.crf_timeline[i + 1][0]
                if i + 1 < len(self.crf_timeline)
                else end_ms
            )
            stop_ms = min(stop_ms, end_ms)
            if stop_ms > start_ms:
                total += (stop_ms - start_ms) * crf
        return total / end_ms

    def degraded_ms(self, end_ms: float) -> float:
        """Total time spent below base quality over [0, end_ms]."""
        total = 0.0
        for i, (start_ms, crf) in enumerate(self.crf_timeline):
            stop_ms = (
                self.crf_timeline[i + 1][0]
                if i + 1 < len(self.crf_timeline)
                else end_ms
            )
            stop_ms = min(stop_ms, end_ms)
            if crf > self.base_crf and stop_ms > start_ms:
                total += stop_ms - start_ms
        return total
