"""Seeded player-arrival workloads that drive the fleet simulation.

A fleet run is shaped by *who shows up when*: the matchmaker groups a
stream of :class:`PlayerArrival` records into sessions, so the arrival
process is the fleet's input signal the way a trajectory is a session's.
Three canonical processes cover the serving regimes the scheduler must
survive:

* ``poisson`` — memoryless steady-state joins (launch-day background
  load);
* ``diurnal`` — a sinusoidally modulated Poisson process (the day/night
  wave every live service planning doc draws);
* ``flash`` — steady background plus a dense burst of arrivals inside a
  few seconds (a streamer points their audience at the game).

Every generator is a pure function of its parameters and ``seed``; the
same call produces a bit-identical :class:`ArrivalTrace`, which keeps
fleet runs replayable end to end.  Traces also round-trip through a
one-arrival-per-line text format (``t_ms game``) so CI can commit a
fixed workload and the matchmaker can reject malformed files with
line-numbered errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

#: The named workloads `generate_arrivals` dispatches on.
WORKLOADS: Tuple[str, ...] = ("poisson", "diurnal", "flash")

#: The diurnal trough's share of the peak rate.
DIURNAL_FLOOR = 0.2
#: The flash crowd's extra players and the window they land in (ms).
SURGE_PLAYERS = 32
SURGE_WIDTH_MS = 2000.0


@dataclass(frozen=True)
class PlayerArrival:
    """One player showing up at the fleet's front door.

    ``t_ms`` is fleet sim time; ``game`` names the title the player wants
    to join (one of :data:`repro.world.ALL_GAMES` in real runs, but the
    trace format does not hard-code the game list so synthetic tests can
    use toy names).
    """

    t_ms: float
    game: str

    def __post_init__(self) -> None:
        """Validate the arrival time and game name."""
        if not math.isfinite(self.t_ms) or self.t_ms < 0:
            raise ValueError(f"t_ms must be finite and >= 0, got {self.t_ms}")
        if not self.game or any(ch.isspace() for ch in self.game):
            raise ValueError(f"game must be a non-empty token, got {self.game!r}")


class ArrivalTrace:
    """An ordered, finite sequence of player arrivals.

    Arrival times must be non-decreasing — the matchmaker consumes the
    trace front to back and schedules one simulator event per arrival.
    """

    def __init__(self, arrivals: Sequence[PlayerArrival]) -> None:
        """Wrap ``arrivals``, validating the non-decreasing time order."""
        items = tuple(arrivals)
        for prev, cur in zip(items, items[1:]):
            if cur.t_ms < prev.t_ms:
                raise ValueError(
                    f"arrivals out of order: {cur.t_ms} ms after {prev.t_ms} ms"
                )
        self.arrivals: Tuple[PlayerArrival, ...] = items

    def __len__(self) -> int:
        """Number of arrivals in the trace."""
        return len(self.arrivals)

    def __iter__(self) -> Iterator[PlayerArrival]:
        """Iterate arrivals in time order."""
        return iter(self.arrivals)

    def __eq__(self, other: object) -> bool:
        """Bit-level equality on the arrival tuple."""
        if not isinstance(other, ArrivalTrace):
            return NotImplemented
        return self.arrivals == other.arrivals

    def __repr__(self) -> str:
        """Compact debugging form with count and horizon."""
        return (f"ArrivalTrace({len(self.arrivals)} arrivals, "
                f"horizon {self.horizon_ms:.0f} ms)")

    @property
    def horizon_ms(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return self.arrivals[-1].t_ms if self.arrivals else 0.0

    def games(self) -> Tuple[str, ...]:
        """The distinct games requested, sorted by name."""
        return tuple(sorted({a.game for a in self.arrivals}))

    # ------------------------------------------------------------------
    # Text round-trip (the CI-committed workload format)
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, source: str = "<arrivals>") -> "ArrivalTrace":
        """Parse the ``t_ms game`` line format, one arrival per line.

        Blank lines and ``#`` comments are skipped.  Every malformed line
        raises :class:`ValueError` carrying ``source`` and the 1-based
        line number, so a bad committed workload fails CI with a pointer
        to the exact line rather than a stack trace.
        """
        arrivals: List[PlayerArrival] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(
                    f"{source}:{lineno}: expected 't_ms game', got {raw.strip()!r}"
                )
            try:
                t_ms = float(fields[0])
            except ValueError:
                raise ValueError(
                    f"{source}:{lineno}: arrival time {fields[0]!r} is not a number"
                ) from None
            try:
                arrival = PlayerArrival(t_ms=t_ms, game=fields[1])
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None
            if arrivals and arrival.t_ms < arrivals[-1].t_ms:
                raise ValueError(
                    f"{source}:{lineno}: arrival at {arrival.t_ms:g} ms is "
                    f"before the previous arrival at {arrivals[-1].t_ms:g} ms"
                )
            arrivals.append(arrival)
        return cls(arrivals)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ArrivalTrace":
        """Parse a trace file (see :meth:`parse` for the format)."""
        path = Path(path)
        return cls.parse(path.read_text(encoding="utf-8"), source=str(path))

    def to_text(self) -> str:
        """Serialize back to the line format :meth:`parse` accepts.

        Times use ``repr`` so ``parse(to_text(trace)) == trace`` holds
        bit for bit — float repr is exact under round-trip.
        """
        lines = [f"{a.t_ms!r} {a.game}" for a in self.arrivals]
        return "\n".join(lines) + ("\n" if lines else "")


def _validated(rate_per_s: float, duration_s: float,
               games: Sequence[str]) -> Tuple[str, ...]:
    """Shared argument validation for the generators; returns the games."""
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    games = tuple(games)
    if not games:
        raise ValueError("need at least one game")
    for game in games:
        if not game or any(ch.isspace() for ch in game):
            raise ValueError(f"game must be a non-empty token, got {game!r}")
    return games


def _assign_games(rng: np.random.Generator, count: int,
                  games: Tuple[str, ...]) -> List[str]:
    """Deterministically pick a game per arrival, uniform over ``games``."""
    if len(games) == 1:
        return [games[0]] * count
    picks = rng.integers(0, len(games), size=count)
    return [games[int(i)] for i in picks]


def poisson_arrivals(
    rate_per_s: float,
    duration_s: float,
    seed: int,
    games: Sequence[str] = ("racing",),
) -> ArrivalTrace:
    """Memoryless joins at ``rate_per_s`` over ``duration_s`` seconds."""
    games = _validated(rate_per_s, duration_s, games)
    rng = np.random.default_rng(seed)
    horizon_ms = duration_s * 1000.0
    times: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1000.0 / rate_per_s))
        if t > horizon_ms:
            break
        times.append(t)
    assigned = _assign_games(rng, len(times), games)
    return ArrivalTrace(
        [PlayerArrival(t_ms=t, game=g) for t, g in zip(times, assigned)]
    )


def diurnal_arrivals(
    peak_rate_per_s: float,
    duration_s: float,
    seed: int,
    games: Sequence[str] = ("racing",),
) -> ArrivalTrace:
    """A sinusoidal day/night wave peaking at ``peak_rate_per_s``.

    Implemented by thinning a homogeneous Poisson process at the peak
    rate: a candidate at time ``t`` survives with probability
    ``floor + (1 - floor) * (1 - cos(2*pi*t/T)) / 2`` — the trough keeps
    :data:`DIURNAL_FLOOR` of the peak load, and one full cycle fits the
    horizon.  Thinning keeps the process exactly Poisson with the target
    intensity while staying a pure function of ``seed``.
    """
    games = _validated(peak_rate_per_s, duration_s, games)
    floor = DIURNAL_FLOOR
    rng = np.random.default_rng(seed)
    horizon_ms = duration_s * 1000.0
    times: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1000.0 / peak_rate_per_s))
        if t > horizon_ms:
            break
        phase = 2.0 * math.pi * t / horizon_ms
        envelope = floor + (1.0 - floor) * 0.5 * (1.0 - math.cos(phase))
        if float(rng.random()) < envelope:
            times.append(t)
    assigned = _assign_games(rng, len(times), games)
    return ArrivalTrace(
        [PlayerArrival(t_ms=t, game=g) for t, g in zip(times, assigned)]
    )


def flash_crowd_arrivals(
    base_rate_per_s: float,
    duration_s: float,
    seed: int,
    games: Sequence[str] = ("racing",),
) -> ArrivalTrace:
    """Steady background joins plus a dense surge partway through.

    :data:`SURGE_PLAYERS` extra arrivals land uniformly inside a
    :data:`SURGE_WIDTH_MS` window starting at 40 % of the horizon — the
    canonical "streamer effect" burst the matchmaker and render farm must
    absorb without starving the background sessions.
    """
    games = _validated(base_rate_per_s, duration_s, games)
    rng = np.random.default_rng(seed)
    horizon_ms = duration_s * 1000.0
    base: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1000.0 / base_rate_per_s))
        if t > horizon_ms:
            break
        base.append(t)
    surge_start = 0.4 * horizon_ms
    surge_end = min(horizon_ms, surge_start + SURGE_WIDTH_MS)
    surge = sorted(
        float(rng.uniform(surge_start, surge_end)) for _ in range(SURGE_PLAYERS)
    )
    times = sorted(base + surge)
    assigned = _assign_games(rng, len(times), games)
    return ArrivalTrace(
        [PlayerArrival(t_ms=t, game=g) for t, g in zip(times, assigned)]
    )


def generate_arrivals(
    workload: str,
    rate_per_s: float,
    duration_s: float,
    seed: int,
    games: Sequence[str] = ("racing",),
) -> ArrivalTrace:
    """Dispatch on a :data:`WORKLOADS` name with that workload's defaults.

    ``rate_per_s`` is the Poisson rate, the diurnal *peak* rate, or the
    flash-crowd *background* rate respectively.
    """
    if workload == "poisson":
        return poisson_arrivals(rate_per_s, duration_s, seed, games)
    if workload == "diurnal":
        return diurnal_arrivals(rate_per_s, duration_s, seed, games)
    if workload == "flash":
        return flash_crowd_arrivals(rate_per_s, duration_s, seed, games)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
