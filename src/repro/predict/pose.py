"""Viewport-pose prediction for speculative far-BE prefetch.

HMD pose exhibits strong frame-to-frame correlation (the "VR Viewport
Pose Model" measurements), so a few-frames-out forecast is usually a
meter-accurate guess about where the player's next grid point will be.
The predictor here is deliberately simple and fully deterministic:
constant-velocity dead reckoning, which extrapolates the latest
finite-difference velocity (and angular velocity) ``horizon_frames``
ahead.

Every forecast carries a *calibrated confidence radius*: an EWMA of the
realized prediction error times a safety margin.  The frame loop only
speculates while the radius stays below a bound, so a predictor whose
errors blow up (teleports, snap-turns, stale-speculation storms)
throttles itself until its error estimate re-converges.  A forecast
whose realized error exceeds the radius it shipped with is counted as a
misprediction.

Pure float arithmetic, no RNG: two runs over the same trajectory produce
bit-identical forecasts, which the sync validator relies on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..geometry import Vec2
from ..trace.movement import FRAME_MS

#: Weight of each realized error in the confidence-radius EWMA.
ERROR_ALPHA = 0.2
#: Safety factor from the error EWMA to the radius a forecast ships with.
CONFIDENCE_MARGIN = 2.0
#: Error EWMA before any forecast has been scored.
CONFIDENCE_INIT_M = 0.5
#: Speculation gate: forecasts with a wider radius are not acted on.
MAX_CONFIDENCE_M = 4.0
#: How long an unconfirmed speculative cache entry may linger before it
#: expires as a misprediction.
SPECULATIVE_TTL_MS = 1000.0


def wrap_angle(radians: float) -> float:
    """Map an angle difference into ``[-pi, pi)`` (shortest turn)."""
    return (radians + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class PredictConfig:
    """Knobs for the pose predictor: ``horizon_frames`` is how many
    rendering intervals ahead to forecast."""

    horizon_frames: int = 6

    def __post_init__(self) -> None:
        if self.horizon_frames < 1:
            raise ValueError("horizon_frames must be >= 1")


@dataclass(frozen=True)
class PosePrediction:
    """One forecast: where the viewport will be at ``t_ms``."""

    t_ms: float
    position: Vec2
    heading: float
    confidence_m: float


class PosePredictor:
    """Per-player pose forecaster with calibrated confidence.

    Feed every displayed pose through :meth:`observe`; ask for a
    forecast with :meth:`predict`.  Outstanding forecasts are scored
    against reality as their target times arrive, updating the error
    EWMA (and hence the confidence radius) and the misprediction count.
    """

    def __init__(self, config: PredictConfig) -> None:
        self.config = config
        self._last: Optional[Tuple[float, Vec2, float]] = None
        self._velocity = Vec2(0.0, 0.0)  # meters per ms
        self._angular = 0.0  # radians per ms
        self._have_velocity = False
        self._err_ewma = CONFIDENCE_INIT_M
        #: (target_t_ms, predicted position, shipped radius) awaiting truth.
        self._outstanding: Deque[Tuple[float, Vec2, float]] = deque()
        self.predictions = 0
        self.mispredictions = 0

    @property
    def confidence_m(self) -> float:
        """The radius the next forecast would ship with."""
        return CONFIDENCE_MARGIN * self._err_ewma

    def observe(self, t_ms: float, position: Vec2, heading: float) -> None:
        """Ingest the pose displayed at ``t_ms`` and score due forecasts."""
        while self._outstanding and self._outstanding[0][0] <= t_ms:
            _, predicted, radius = self._outstanding.popleft()
            error = predicted.distance_to(position)
            if error > radius:
                self.mispredictions += 1
            self._err_ewma = (1.0 - ERROR_ALPHA) * self._err_ewma + ERROR_ALPHA * error
        if self._last is not None:
            last_t, last_pos, last_heading = self._last
            dt = t_ms - last_t
            if dt > 0.0:
                self._velocity = (position - last_pos) / dt
                self._angular = wrap_angle(heading - last_heading) / dt
                self._have_velocity = True
        self._last = (t_ms, position, heading)

    def predict(self, now_ms: float) -> Optional[PosePrediction]:
        """Forecast the pose ``horizon_frames`` intervals past ``now_ms``.

        Returns None until two observations have established a velocity.
        The forecast is recorded as outstanding so a later
        :meth:`observe` at (or past) its target time scores it.
        """
        if self._last is None or not self._have_velocity:
            return None
        horizon_ms = self.config.horizon_frames * FRAME_MS
        last_t, last_pos, last_heading = self._last
        ahead_ms = (now_ms - last_t) + horizon_ms
        position = last_pos + self._velocity * ahead_ms
        heading = last_heading + self._angular * ahead_ms
        radius = self.confidence_m
        self.predictions += 1
        self._outstanding.append((now_ms + horizon_ms, position, radius))
        return PosePrediction(
            t_ms=now_ms + horizon_ms,
            position=position,
            heading=heading,
            confidence_m=radius,
        )
