"""Per-client delivery-rate estimation.

The adaptation layer (``repro.adapt``) needs to know, per client, how
fast the shared medium is actually delivering bytes *right now*.  This
module provides that signal: a :class:`RateEstimator` fed with completed
:class:`~repro.net.link.WifiLink` transfers (the system loops call
:meth:`RateEstimator.observe` with the size and measured duration of
every finished fetch).

Each completed transfer yields one instantaneous rate sample
(``bits / duration``) and one per-megabit service time; exponentially
weighted moving averages of both smooth the processor-sharing medium's
per-transfer contention noise while still tracking sustained rate
changes within a few transfers.

Determinism: the estimator is pure arithmetic over the observation
stream — no wall clock, no RNG.  Identical observation sequences produce
bit-identical estimate streams (property-tested), which is what lets a
(trace, seed) replay reproduce the controller's every decision.
"""

from __future__ import annotations

from typing import Optional

MBIT = 1_000_000.0
EWMA_ALPHA = 0.3  # weight of the newest rate sample
WARMUP_SAMPLES = 2  # observations before estimates are served


class RateEstimator:
    """EWMA delivery rate and unit delay for one client."""

    def __init__(self) -> None:
        self.samples = 0
        self._rate_mbps: Optional[float] = None
        self._unit_ms: Optional[float] = None  # smoothed ms per megabit
        self._last_observed_ms: Optional[float] = None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def observe(
        self, now_ms: float, size_bytes: float, duration_ms: float
    ) -> None:
        """Record one completed transfer (called at its completion time).

        ``duration_ms`` is the transfer's total latency as the client saw
        it — queueing under contention, retransmit penalties, and jitter
        included — which is exactly the quantity deadline decisions are
        made against.
        """
        if size_bytes <= 0 or duration_ms <= 0:
            return  # zero-byte transfers carry no rate information
        if self._last_observed_ms is not None and now_ms < self._last_observed_ms:
            raise ValueError("observations must arrive in time order")
        self._last_observed_ms = now_ms
        megabits = size_bytes * 8.0 / MBIT
        rate_mbps = megabits / duration_ms * 1000.0
        unit_ms = duration_ms / megabits
        if self._rate_mbps is None:
            self._rate_mbps = rate_mbps
            self._unit_ms = unit_ms
        else:
            self._rate_mbps += EWMA_ALPHA * (rate_mbps - self._rate_mbps)
            self._unit_ms += EWMA_ALPHA * (unit_ms - self._unit_ms)
        self.samples += 1

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    @property
    def warmed_up(self) -> bool:
        """Whether enough observations arrived to serve estimates."""
        return self.samples >= WARMUP_SAMPLES

    def rate_mbps(self) -> Optional[float]:
        """Smoothed delivery rate, or None before warm-up."""
        if not self.warmed_up:
            return None
        return self._rate_mbps

    def predict_transfer_ms(self, size_bytes: float) -> Optional[float]:
        """Expected latency of a ``size_bytes`` transfer issued now.

        Smoothed unit delay times the transfer size — queueing is folded
        into the smoothed unit delay, so this is the straightforward "at
        the rate and contention I have been seeing" forecast the
        drop/ladder policies act on.  None before warm-up.
        """
        if not self.warmed_up or size_bytes <= 0:
            return None
        megabits = size_bytes * 8.0 / MBIT
        return self._unit_ms * megabits
