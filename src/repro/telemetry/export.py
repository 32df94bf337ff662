"""Trace consumer: Chrome trace-event JSON, written and read back.

:func:`to_chrome_trace` renders the :class:`~repro.telemetry.tracer.Span`
stream in the Chrome trace-event format (an array of
``ph``/``ts``/``dur``/``pid``/``tid`` objects) loadable directly in
Perfetto or ``chrome://tracing``.  Each player becomes a *process* (pid)
with one named *thread* (tid) per lane, so the four concurrent pipeline
tasks of Eq. 2 render as parallel tracks under each player.  Timestamps
convert from simulated ms to the format's µs.

:func:`read_chrome_trace` is its inverse, the input of ``repro report``:
the same file a reader loads in Perfetto is the one the frame-budget
analyzer consumes, checked first by :func:`validate_chrome_trace`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from .tracer import (
    KIND_COUNTER,
    KIND_INSTANT,
    KIND_SPAN,
    SESSION_TRACK,
    Span,
)

# Stable thread ordering inside each player's process so Perfetto shows
# the pipeline in pipeline order; unknown lanes sort after these.
LANE_ORDER = (
    "frame",
    "upload",
    "server",
    "render",
    "decode",
    "prefetch",
    "transfer",
    "sync",
    "merge",
    "wait",
    "net",
    "cache",
    "link",
    "sim",
)

MS_TO_US = 1000.0

# Record kind of each non-metadata trace-event phase.
_KINDS = {"X": KIND_SPAN, "i": KIND_INSTANT, "C": KIND_COUNTER}


def _pid(player: int) -> int:
    """Chrome pids must be non-negative; the session track becomes pid 0."""
    return 0 if player == SESSION_TRACK else player + 1


def _process_name(player: int) -> str:
    return "session" if player == SESSION_TRACK else f"player {player}"


def _lane_sort_key(lane: str) -> tuple:
    try:
        return (0, LANE_ORDER.index(lane))
    except ValueError:
        return (1, lane)


def to_chrome_trace(records: Sequence[Span]) -> List[Dict[str, Any]]:
    """Render records as a Chrome trace-event array.

    Spans become complete events (``ph: "X"``), instants thread-scoped
    instant events (``ph: "i"``), counters counter events (``ph: "C"``);
    metadata events name every process and thread.
    """
    # Assign a tid per (player, lane) in deterministic lane order.
    lanes_by_player: Dict[int, List[str]] = {}
    for r in records:
        lanes = lanes_by_player.setdefault(r.player, [])
        if r.lane not in lanes:
            lanes.append(r.lane)
    tid_map: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    for player in sorted(lanes_by_player):
        pid = _pid(player)
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": _process_name(player)},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "ts": 0, "args": {"sort_index": pid},
        })
        for tid, lane in enumerate(
            sorted(lanes_by_player[player], key=_lane_sort_key)
        ):
            tid_map[(player, lane)] = tid
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": lane},
            })
            events.append({
                "ph": "M", "name": "thread_sort_index", "pid": pid,
                "tid": tid, "ts": 0, "args": {"sort_index": tid},
            })
    for r in records:
        pid = _pid(r.player)
        tid = tid_map[(r.player, r.lane)]
        ts = r.start_ms * MS_TO_US
        if r.kind == KIND_SPAN:
            events.append({
                "ph": "X", "name": r.name, "cat": r.cat, "pid": pid,
                "tid": tid, "ts": ts, "dur": r.dur_ms * MS_TO_US,
                "args": r.args or {},
            })
        elif r.kind == KIND_INSTANT:
            events.append({
                "ph": "i", "name": r.name, "cat": r.cat, "pid": pid,
                "tid": tid, "ts": ts, "s": "t", "args": r.args or {},
            })
        elif r.kind == KIND_COUNTER:
            events.append({
                "ph": "C", "name": r.name, "pid": pid, "tid": tid,
                "ts": ts, "args": dict(r.args or {}),
            })
    return events


def write_chrome_trace(path: Union[str, Path], records: Sequence[Span]) -> int:
    """Write a Perfetto-loadable trace JSON; returns the event count."""
    events = to_chrome_trace(records)
    Path(path).write_text(json.dumps(events, separators=(",", ":")))
    return len(events)


def json_type(value: Any) -> str:
    """The JSON type name of a parsed value, for one-line parse errors
    that name what they found instead of echoing it."""
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "array"
    if isinstance(value, str):
        return "string"
    if isinstance(value, bool):
        return "boolean"
    if value is None:
        return "null"
    return "number"


def read_chrome_trace(path: Union[str, Path]) -> List[Span]:
    """Load a :func:`write_chrome_trace` file back into records.

    The exact inverse of :func:`to_chrome_trace` up to the ms/µs
    conversion: pid 0 is the session track and pid ``p`` player
    ``p - 1``; a (pid, tid) reads back as the lane its ``thread_name``
    metadata event names.  Raises ValueError as one ``PATH: event N: …``
    line on the first event :func:`validate_chrome_trace` refuses or
    whose (pid, tid) no ``thread_name`` names.
    """
    try:
        events = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(events, list):
        raise ValueError(f"{path}: a JSON {json_type(events)}, not a trace-event array")
    try:
        validate_chrome_trace(events)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lanes = {
        (ev["pid"], ev["tid"]): ev["args"]["name"]
        for ev in events
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    records: List[Span] = []
    for i, ev in enumerate(events):
        kind = _KINDS.get(ev["ph"])
        if kind is None:
            continue
        lane = lanes.get((ev["pid"], ev["tid"]))
        if lane is None:
            raise ValueError(
                f"{path}: event {i}: pid {ev['pid']} tid {ev['tid']} "
                "has no thread_name"
            )
        records.append(Span(
            kind,
            ev["name"],
            "counter" if kind == KIND_COUNTER else ev.get("cat", ""),
            SESSION_TRACK if ev["pid"] == 0 else ev["pid"] - 1,
            lane,
            ev["ts"] / MS_TO_US,
            ev["dur"] / MS_TO_US if kind == KIND_SPAN else 0.0,
            ev.get("args", {}),
        ))
    return records


def validate_chrome_trace(events: Iterable[Any]) -> None:
    """Assert the Chrome trace-event contract :func:`read_chrome_trace`
    relies on.

    Every event — metadata included — must be an object with a known
    ``ph`` (``M``/``X``/``i``/``C``), a name, numeric ``ts``,
    non-negative integer ``pid``/``tid`` and, if present, object
    ``args``; complete events additionally need a non-negative numeric
    ``dur``, and ``thread_name`` metadata a string ``args.name``.
    Counter series must be monotone in ``ts`` per (pid, name).  Raises
    ValueError naming the first bad event by index.
    """
    counter_ts: Dict[tuple, float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i}: a JSON {json_type(ev)}, not a JSON object")
        if "ph" not in ev:
            raise ValueError(f"event {i}: lacks ph")
        ph = ev["ph"]
        if ph != "M" and ph not in _KINDS:
            raise ValueError(f"event {i}: ph is not one of 'M', 'X', 'i', 'C'")
        if not isinstance(ev.get("ts"), (int, float)):
            raise ValueError(f"event {i}: ts is not a number")
        for key in ("pid", "tid"):
            value = ev.get(key)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"event {i}: {key} is not a non-negative integer")
        name = ev.get("name")
        if not name or not isinstance(name, str):
            raise ValueError(f"event {i}: lacks name")
        if not isinstance(ev.get("args", {}), dict):
            raise ValueError(f"event {i}: args is not a JSON object")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i}: dur is not a non-negative number")
        elif ph == "C":
            key = (ev["pid"], name)
            last = counter_ts.get(key)
            if last is not None and ev["ts"] < last:
                raise ValueError(
                    f"event {i}: counter {name!r} not monotone in ts: "
                    f"{ev['ts']} < {last}"
                )
            counter_ts[key] = ev["ts"]
        elif ph == "M" and name == "thread_name":
            if not isinstance(ev.get("args", {}).get("name"), str):
                raise ValueError(f"event {i}: thread_name lacks a string args.name")
