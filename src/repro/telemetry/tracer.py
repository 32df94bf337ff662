"""Span-based tracing in **simulated milliseconds**.

The online simulation needs what the paper's evaluation had: per-frame
timing decompositions, not session means.  This tracer records *spans*
(named intervals on a per-player track), *instants* (point events such as
cache lookups), and *counters* (sampled values such as the simulator's
event-queue depth), all stamped with the simulation clock — never the
wall clock — so a traced run is exactly as deterministic as an untraced
one and two runs of the same (config, seed) produce byte-identical
traces.

Design constraints, in order:

1. **The disabled path must be free.**  ``None`` is the only "tracing
   off": every holder types its tracer ``Optional[SpanTracer]`` and every
   instrumentation site is guarded by ``tracer is not None`` before any
   argument dict is built, so a run without ``--trace`` allocates
   nothing and schedules nothing — the pinned clean regression stays
   bit-identical.
2. **Tracing must not perturb the simulation.**  Spans are recorded
   *retroactively* (``complete(start, dur)``) by the code that already
   knows both endpoints; the tracer never schedules simulator events,
   spawns processes, or touches RNG state.  A traced run therefore
   produces the same metrics as an untraced one.
3. **Sim-time stamps.**  All timestamps are simulated ms (the unit of the
   whole code base); the exporters convert to Chrome's µs on the way out.

Consumers: :mod:`repro.telemetry.export` (Perfetto / chrome://tracing
JSON and a schema-versioned JSONL event log) and
:mod:`repro.telemetry.report` (per-frame budget attribution).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

# Bumped whenever the JSONL record layout changes; readers refuse files
# from a different major version instead of misparsing them.
SCHEMA_VERSION = 1

# Record kinds (match Chrome trace-event phases where one exists).
KIND_SPAN = "span"
KIND_INSTANT = "instant"
KIND_COUNTER = "counter"

# The session-wide track (shared link, simulator) — not a player.
SESSION_TRACK = -1


class Span:
    """One trace record: a completed span, an instant, or a counter sample.

    ``player`` selects the track (``SESSION_TRACK`` for the shared link /
    simulator); ``lane`` the sub-track within it (``frame``, ``render``,
    ``decode``, ``prefetch``, ``sync``, ``merge``, ``wait``, ``net``,
    ``cache``, ``link``, ``sim``).  Instants have ``dur_ms == 0.0``;
    counters carry their value in ``args["value"]``.
    """

    __slots__ = ("kind", "name", "cat", "player", "lane", "start_ms", "dur_ms", "args")

    def __init__(
        self,
        kind: str,
        name: str,
        cat: str,
        player: int,
        lane: str,
        start_ms: float,
        dur_ms: float,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.kind = kind
        self.name = name
        self.cat = cat
        self.player = player
        self.lane = lane
        self.start_ms = start_ms
        self.dur_ms = dur_ms
        self.args = args

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.dur_ms

    def arg(self, key: str, default: Any = None) -> Any:
        """One attribute, or ``default`` when absent."""
        if self.args is None:
            return default
        return self.args.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.kind} {self.name!r} p{self.player}/{self.lane} "
            f"@{self.start_ms:.3f}+{self.dur_ms:.3f})"
        )


class SpanTracer:
    """Collects trace records for one run.

    Append-only and single-threaded (the simulator is single-threaded);
    every method is a list append.  Memory: one small object per record —
    a 20 s 4-player Coterie run emits ~10 k records.
    """

    def __init__(self) -> None:
        self.records: List[Span] = []

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def complete(
        self,
        name: str,
        player: int,
        lane: str,
        start_ms: float,
        dur_ms: float,
        cat: str = "stage",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span whose endpoints are already known.

        This is the only way spans enter the trace: the instrumented code
        measures in sim time and stamps the span after the fact, so
        tracing can never alter event ordering.
        """
        if dur_ms < 0:
            raise ValueError(f"span {name!r} has negative duration {dur_ms}")
        self.records.append(
            Span(KIND_SPAN, name, cat, player, lane, start_ms, dur_ms, args)
        )

    def instant(
        self,
        name: str,
        player: int,
        lane: str,
        at_ms: float,
        cat: str = "event",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a point event (cache lookup, retry, abort, ...)."""
        self.records.append(
            Span(KIND_INSTANT, name, cat, player, lane, at_ms, 0.0, args)
        )

    def counter(
        self, name: str, at_ms: float, value: float, player: int = SESSION_TRACK
    ) -> None:
        """Record one sample of a time-varying quantity."""
        self.records.append(
            Span(KIND_COUNTER, name, "counter", player, name, at_ms, 0.0,
                 {"value": value})
        )

    # ------------------------------------------------------------------
    # Introspection (tests, report builders)
    # ------------------------------------------------------------------

    def spans(
        self, name: Optional[str] = None, player: Optional[int] = None
    ) -> List[Span]:
        """Completed spans, optionally filtered by name and/or player."""
        return [
            r
            for r in self.records
            if r.kind == KIND_SPAN
            and (name is None or r.name == name)
            and (player is None or r.player == player)
        ]

    def instants(
        self, name: Optional[str] = None, player: Optional[int] = None
    ) -> List[Span]:
        """Instant events, optionally filtered by name and/or player."""
        return [
            r
            for r in self.records
            if r.kind == KIND_INSTANT
            and (name is None or r.name == name)
            and (player is None or r.player == player)
        ]

    def lanes(self, player: int) -> List[str]:
        """Distinct span lanes recorded for one player's track."""
        seen: List[str] = []
        for r in self.records:
            if r.kind == KIND_SPAN and r.player == player and r.lane not in seen:
                seen.append(r.lane)
        return seen

    def clear(self) -> None:
        """Drop all recorded events (reuse one tracer across runs)."""
        self.records.clear()
