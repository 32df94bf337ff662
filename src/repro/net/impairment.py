"""Seeded, deterministic WiFi-link impairment: bursty loss, jitter, dips.

The clean :class:`~repro.net.link.WifiLink` reproduces the paper's
testbed on a good day; this module models the bad days that dominate real
deployments (OpenUVR names WiFi interference as the primary failure mode
for untethered VR streaming).  Three composable mechanisms:

* **Bursty packet loss** — a Gilbert–Elliott two-state Markov chain
  walked per MTU-sized segment.  Entering the *bad* state drops the
  segment; each loss *burst* costs one TCP-like retransmit timeout whose
  backoff doubles for back-to-back bursts (capped), and every lost
  segment is retransmitted, inflating the bytes actually on the air.
* **Latency jitter** — a log-normal extra delay per transfer
  (``median * exp(sigma * N(0,1))``), the classic heavy-tailed shape of
  wireless MAC service times.
* **Capacity-dip episodes** — scheduled interference windows during which
  the medium serves at a fraction of its nominal capacity (and may carry
  extra loss).  A transfer starting inside a window is slowed for its
  whole life, which is exactly how a TCP flow that enters an interference
  burst behaves.
* **Rate traces** — a :class:`RateTrace` is a piecewise-constant capacity
  factor over the whole session: sustained, *time-varying* link rate
  (cellular walks, bufferbloat ramps, Wi-Fi contention square waves)
  rather than the episodic dips above.  Traces load from a file or come
  from named seeded generators, and compose multiplicatively with any
  active dip window — contention on top of an interference burst
  compounds, as it does on a real medium.

Determinism: one ``random.Random(seed)`` consumed in transfer-submission
order, and trace generators draw their entire segment sequence from a
dedicated ``random.Random(seed)`` at construction time (sampling a trace
consumes no randomness).  The simulator resumes same-timestamp processes
in FIFO order, so a (schedule, seed) pair replays bit-identically — no
wall-clock anywhere.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class DipEpisode:
    """One scheduled interference window on the medium."""

    start_ms: float
    end_ms: float
    capacity_factor: float = 1.0  # fraction of nominal capacity available
    loss_rate: float = 0.0  # extra packet loss while the window is active

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise ValueError("dip window must satisfy 0 <= start < end")
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")

    def active_at(self, now_ms: float) -> bool:
        """Whether the window covers the instant ``now_ms``."""
        return self.start_ms <= now_ms < self.end_ms


#: Named synthetic rate-trace generators (see :meth:`RateTrace.named`).
TRACE_PROFILES = ("cellular", "bufferbloat", "contention")

#: The cellular walk's epoch (ms) and its capacity floor.
CELLULAR_STEP_MS = 500.0
CELLULAR_FLOOR = 0.12
#: The bufferbloat ramp's step (ms) and the capacity it bottoms out at.
BLOAT_STEP_MS = 250.0
BLOAT_TROUGH = 0.15
#: The contention square wave's period (ms) and its contended capacity.
CONTENTION_PERIOD_MS = 2_000.0
CONTENTION_LOW = 0.25


@dataclass(frozen=True)
class RateTrace:
    """Piecewise-constant link capacity factor over time.

    ``segments`` is a time-sorted tuple of ``(start_ms, capacity_factor)``
    pairs; each factor applies from its start until the next segment's
    start (the last segment extends forever).  Factors are fractions of
    nominal capacity in ``(0, 1]``.  Before the first segment the link
    runs at nominal capacity.

    Traces are immutable and sampled with a binary search — replaying the
    same trace is free of any hidden state.
    """

    segments: Tuple[Tuple[float, float], ...]
    name: str = "custom"

    # Derived, cached sample index (tuples; kept off the dataclass eq).
    _starts: Tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trace must contain at least one segment")
        previous = -1.0
        for start_ms, factor in self.segments:
            if start_ms < 0:
                raise ValueError("segment start_ms must be non-negative")
            if start_ms <= previous:
                raise ValueError(
                    "segment starts must be strictly increasing"
                )
            if not 0.0 < factor <= 1.0:
                raise ValueError(
                    f"capacity factor must be in (0, 1], got {factor}"
                )
            previous = start_ms
        object.__setattr__(
            self, "_starts", tuple(s for s, _ in self.segments)
        )

    def factor_at(self, now_ms: float) -> float:
        """Capacity fraction the trace dictates at ``now_ms``."""
        index = bisect_right(self._starts, now_ms) - 1
        if index < 0:
            return 1.0  # before the trace starts: nominal capacity
        return self.segments[index][1]

    # ------------------------------------------------------------------
    # Construction: trace files and named synthetic generators
    # ------------------------------------------------------------------

    @classmethod
    def from_file(cls, path: str) -> "RateTrace":
        """Load ``start_ms capacity_factor`` rows from a trace file.

        Blank lines and ``#`` comments are skipped.  Rows may be separated
        by whitespace or commas.  A malformed row fails with a
        line-numbered message — never a bare stack trace.
        """
        segments = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise ValueError(f"cannot read trace file {path!r}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected "
                    f"'start_ms capacity_factor', got {raw.strip()!r}"
                )
            try:
                start_ms, factor = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric value in "
                    f"{raw.strip()!r}"
                ) from None
            if not (math.isfinite(start_ms) and math.isfinite(factor)):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite value in "
                    f"{raw.strip()!r}"
                )
            try:  # the row against the one before it
                cls(segments=(*segments[-1:], (start_ms, factor)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            segments.append((start_ms, factor))
        if not segments:
            raise ValueError(f"{path}: trace file contains no segments")
        return cls(segments=tuple(segments), name=f"file:{path}")

    @classmethod
    def cellular(cls, seed: int = 0, duration_ms: float = 20_000.0) -> "RateTrace":
        """Seeded random-walk capacity, the rapidly-varying cellular link.

        A multiplicative walk over :data:`CELLULAR_STEP_MS` epochs, clamped
        to ``[CELLULAR_FLOOR, 1]`` — the shape of the 6.829 cloud-gaming
        pset's Mahimahi cellular traces: long coherent fades with fast
        wiggle.
        """
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        rng = random.Random(seed)
        segments = []
        factor = 1.0
        t = 0.0
        while t < duration_ms:
            factor *= math.exp(rng.gauss(-0.08, 0.35))
            factor = min(1.0, max(CELLULAR_FLOOR, factor))
            segments.append((t, factor))
            t += CELLULAR_STEP_MS
        return cls(segments=tuple(segments), name=f"cellular(seed={seed})")

    @classmethod
    def bufferbloat(cls, duration_ms: float = 20_000.0) -> "RateTrace":
        """Deterministic capacity ramp: slow decay to a trough, then recovery.

        The effective-rate shape of a bufferbloat event — queues fill
        gradually, goodput decays from 20 % to 55 % of the trace to
        :data:`BLOAT_TROUGH`, holds there, then the queue drains at 80 %
        and the link snaps back.
        """
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        step_ms = BLOAT_STEP_MS
        trough = BLOAT_TROUGH
        ramp_start = duration_ms * 0.2
        ramp_end = duration_ms * 0.55
        recover = duration_ms * 0.8
        segments = [(0.0, 1.0)]
        t = step_ms * math.ceil(ramp_start / step_ms)
        while t < duration_ms:
            if t < ramp_end:
                span = max(ramp_end - ramp_start, step_ms)
                frac = (t - ramp_start) / span
                factor = 1.0 - (1.0 - trough) * min(1.0, frac)
            elif t < recover:
                factor = trough
            else:
                factor = 1.0
            segments.append((t, max(trough, min(1.0, factor))))
            t += step_ms
        return cls(segments=tuple(segments), name="bufferbloat")

    @classmethod
    def contention(cls, duration_ms: float = 20_000.0) -> "RateTrace":
        """Square-wave capacity: a contending Wi-Fi station toggling on/off.

        Each :data:`CONTENTION_PERIOD_MS` period spends its first half at
        full capacity and the second at :data:`CONTENTION_LOW` — the
        alternating medium share of a periodic bulk transfer on the same
        channel.
        """
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        segments = []
        t = 0.0
        while t < duration_ms:
            segments.append((t, 1.0))
            segments.append((t + CONTENTION_PERIOD_MS * 0.5, CONTENTION_LOW))
            t += CONTENTION_PERIOD_MS
        return cls(segments=tuple(segments), name="contention")

    @classmethod
    def named(
        cls, profile: str, seed: int = 0, duration_ms: float = 20_000.0
    ) -> "RateTrace":
        """Build one of the committed synthetic profiles by name."""
        if profile == "cellular":
            return cls.cellular(seed=seed, duration_ms=duration_ms)
        if profile == "bufferbloat":
            return cls.bufferbloat(duration_ms=duration_ms)
        if profile == "contention":
            return cls.contention(duration_ms=duration_ms)
        raise ValueError(
            f"unknown trace profile {profile!r}; "
            f"use one of {TRACE_PROFILES} or file:PATH"
        )


#: Gilbert–Elliott probability of staying in the bad state: the mean bad
#: burst is ``1 / (1 - BURSTINESS)`` segments.
BURSTINESS = 0.85
JITTER_SIGMA = 0.35  # log-normal spread of the heavy-tail jitter
RTO_MS = 40.0  # base retransmit timeout per loss burst
RTO_BACKOFF_CAP = 3  # max doublings for back-to-back bursts
MTU_BYTES = 1448  # segment size the loss chain is walked over


@dataclass(frozen=True)
class ImpairmentConfig:
    """Knobs of the impairment model; the default is the identity.

    ``loss_rate`` is the *long-run* segment loss probability; the
    Gilbert–Elliott transition probabilities are derived from it and
    :data:`BURSTINESS`.
    """

    loss_rate: float = 0.0
    jitter_median_ms: float = 0.0
    seed: int = 0
    dips: Tuple[DipEpisode, ...] = ()
    rate_trace: Optional[RateTrace] = None  # time-varying capacity

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.jitter_median_ms < 0:
            raise ValueError("jitter_median_ms must be non-negative")

    @classmethod
    def bursty(cls, loss_rate: float, seed: int = 0) -> "ImpairmentConfig":
        """Impaired-WiFi preset: bursty loss plus mild heavy-tail jitter."""
        return cls(
            loss_rate=loss_rate,
            jitter_median_ms=0.4 if loss_rate > 0 else 0.0,
            seed=seed,
        )


@dataclass(frozen=True)
class TransferImpairment:
    """What the model decided for one transfer at submission time."""

    extra_latency_ms: float  # retransmit timeouts + jitter, after service
    work_scale: float  # multiplier on the submitted work (>= 1.0)
    lost_segments: int
    bursts: int


@dataclass
class ImpairmentStats:
    """Running totals over a link's lifetime (benchmark reporting)."""

    transfers: int = 0
    segments: int = 0
    lost_segments: int = 0
    bursts: int = 0
    extra_latency_ms: float = 0.0
    dip_transfers: int = 0


class LinkImpairment:
    """Stateful sampler applying an :class:`ImpairmentConfig` to transfers.

    The Gilbert–Elliott chain state persists *across* transfers, so a bad
    burst straddling two frames hits both — that temporal correlation is
    what makes bursty loss qualitatively different from i.i.d. loss.
    """

    def __init__(self, config: ImpairmentConfig) -> None:
        self.config = config
        self.stats = ImpairmentStats()
        self._rng = random.Random(config.seed)
        self._bad = False  # Gilbert-Elliott chain state

    def capacity_factor(self, now_ms: float) -> float:
        """Medium capacity fraction at ``now_ms``.

        Dip windows stack by min (overlapping interference bursts do not
        compound below the worst one); a rate trace then *multiplies* in —
        contention riding on top of an interference burst compounds, as
        two independent mechanisms do on a real medium.
        """
        factor = 1.0
        for dip in self.config.dips:
            if dip.active_at(now_ms):
                factor = min(factor, dip.capacity_factor)
        trace = self.config.rate_trace
        if trace is not None:
            factor *= trace.factor_at(now_ms)
        return factor

    def _loss_rate_at(self, now_ms: float) -> float:
        loss = self.config.loss_rate
        for dip in self.config.dips:
            if dip.active_at(now_ms):
                loss = max(loss, dip.loss_rate)
        return loss

    def sample(self, now_ms: float, size_bytes: float) -> TransferImpairment:
        """Draw one transfer's impairment (consumes the seeded RNG)."""
        cfg = self.config
        segments = max(1, math.ceil(size_bytes / MTU_BYTES))
        loss = self._loss_rate_at(now_ms)
        lost = 0
        bursts = 0
        penalty_ms = 0.0
        if loss > 0.0:
            # Simplified Gilbert model: every bad-state segment is dropped.
            # Stationary bad probability equals the target loss rate.
            p_bg = 1.0 - BURSTINESS
            p_gb = min(1.0, loss * p_bg / max(1e-12, 1.0 - loss))
            in_burst = False
            for _ in range(segments):
                if self._bad:
                    lost += 1
                    if not in_burst:
                        # A fresh burst costs one RTO; consecutive bursts
                        # escalate the backoff like TCP's timer doubling.
                        exponent = min(bursts, RTO_BACKOFF_CAP)
                        penalty_ms += RTO_MS * (2.0 ** exponent)
                        bursts += 1
                        in_burst = True
                    self._bad = self._rng.random() < BURSTINESS
                else:
                    in_burst = False
                    self._bad = self._rng.random() < p_gb
        jitter_ms = 0.0
        if cfg.jitter_median_ms > 0.0:
            jitter_ms = cfg.jitter_median_ms * math.exp(
                JITTER_SIGMA * self._rng.gauss(0.0, 1.0)
            )
        factor = self.capacity_factor(now_ms)
        # Lost segments are retransmitted (more bytes on the air); a dip
        # stretches service for the transfer's whole lifetime.
        work_scale = ((segments + lost) / segments) / factor
        self.stats.transfers += 1
        self.stats.segments += segments
        self.stats.lost_segments += lost
        self.stats.bursts += bursts
        self.stats.extra_latency_ms += penalty_ms + jitter_ms
        if factor < 1.0:
            self.stats.dip_transfers += 1
        return TransferImpairment(
            extra_latency_ms=penalty_ms + jitter_ms,
            work_scale=work_scale,
            lost_segments=lost,
            bursts=bursts,
        )
