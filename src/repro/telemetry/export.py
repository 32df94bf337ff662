"""Trace consumers: Chrome trace-event JSON and a JSONL event log.

Two serializations of the same :class:`~repro.telemetry.tracer.Span`
stream:

* :func:`to_chrome_trace` — the Chrome trace-event format (an array of
  ``ph``/``ts``/``dur``/``pid``/``tid`` objects) loadable directly in
  Perfetto or ``chrome://tracing``.  Each player becomes a *process*
  (pid) with one named *thread* (tid) per lane, so the four concurrent
  pipeline tasks of Eq. 2 render as parallel tracks under each player.
  Timestamps convert from simulated ms to the format's µs.
* :func:`write_events_jsonl` / :func:`read_events_jsonl` — one
  schema-versioned JSON record per line, the stable machine-readable log
  that ``repro report`` and the frame-budget analyzer consume.  Readers
  refuse records from an unknown schema version rather than misparse.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from .tracer import (
    KIND_COUNTER,
    KIND_INSTANT,
    KIND_SPAN,
    SCHEMA_VERSION,
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


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------


def record_to_dict(r: Span) -> Dict[str, Any]:
    """One record as its JSONL dict (schema v1)."""
    out: Dict[str, Any] = {
        "v": SCHEMA_VERSION,
        "kind": r.kind,
        "name": r.name,
        "cat": r.cat,
        "player": r.player,
        "lane": r.lane,
        "t0_ms": round(r.start_ms, 6),
        "dur_ms": round(r.dur_ms, 6),
    }
    if r.args:
        out["args"] = r.args
    return out


def record_from_dict(payload: Dict[str, Any]) -> Span:
    """Parse one JSONL dict back into a record (version- and shape-checked;
    raises ValueError naming the bad field)."""
    if not isinstance(payload, dict):
        raise ValueError(f"record is not a JSON object: {payload!r}")
    version = payload.get("v")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event-log schema version {version!r} "
            f"(this reader understands v{SCHEMA_VERSION})"
        )
    missing = [k for k in ("kind", "name", "player", "lane", "t0_ms", "dur_ms")
               if k not in payload]
    if missing:
        raise ValueError(f"event record lacks field {missing[0]!r}")
    kind = payload["kind"]
    if kind not in (KIND_SPAN, KIND_INSTANT, KIND_COUNTER):
        raise ValueError(f"unknown event kind {kind!r}")
    args = payload.get("args")
    if args is not None and not isinstance(args, dict):
        raise ValueError(f"field 'args' must be an object, got {args!r}")
    return Span(
        kind,
        payload["name"],
        payload.get("cat", ""),
        _number(payload, "player", int),
        payload["lane"],
        _number(payload, "t0_ms", float),
        _number(payload, "dur_ms", float),
        args,
    )


def _number(payload: Dict[str, Any], key: str, cast):
    """``cast(payload[key])``, or a ValueError naming the field."""
    try:
        return cast(payload[key])
    except (TypeError, ValueError):
        raise ValueError(f"field {key!r} must be a number, got {payload[key]!r}") from None


def write_events_jsonl(path: Union[str, Path], records: Sequence[Span]) -> int:
    """Write the JSONL event log; returns the record count."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(record_to_dict(r), separators=(",", ":")))
            fh.write("\n")
    return len(records)


def read_events_jsonl(path: Union[str, Path]) -> List[Span]:
    """Load a JSONL event log back into records."""
    records: List[Span] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not JSON: {exc}") from exc
            try:
                records.append(record_from_dict(payload))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return records


def validate_chrome_trace(events: Iterable[Dict[str, Any]]) -> None:
    """Assert the Chrome trace-event contract (tests, benches).

    Every event — metadata included — must carry ``ph``, numeric ``ts``,
    and integer ``pid``/``tid``; complete events additionally need a
    numeric ``dur`` and a name; counter series must be monotone in
    ``ts`` per (pid, name).  Raises ValueError on the first violation.
    """
    counter_ts: Dict[tuple, float] = {}
    for i, ev in enumerate(events):
        if "ph" not in ev:
            raise ValueError(f"event {i} lacks ph: {ev!r}")
        if not isinstance(ev.get("ts"), (int, float)):
            raise ValueError(f"event {i} ts not numeric: {ev!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ValueError(f"event {i} {key} not an int: {ev!r}")
        if ev["ph"] == "X":
            if not isinstance(ev.get("dur"), (int, float)):
                raise ValueError(f"event {i} dur not numeric: {ev!r}")
            if not ev.get("name"):
                raise ValueError(f"event {i} lacks name: {ev!r}")
        elif ev["ph"] == "C":
            key = (ev["pid"], ev.get("name"))
            last = counter_ts.get(key)
            if last is not None and ev["ts"] < last:
                raise ValueError(
                    f"event {i} counter {key} not monotone in ts: "
                    f"{ev['ts']} < {last}"
                )
            counter_ts[key] = ev["ts"]
