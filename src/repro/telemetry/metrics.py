"""Sim-time metrics: counters, gauges, histograms, ring-buffered series.

The tracer (PR 3) answers "what happened inside one frame"; this module
answers "how did the run evolve" — continuous, comparable time series of
link utilization, cache hit ratio, queue depths, ABR state — the signal
shape the SLO engine (:mod:`repro.telemetry.slo`), the live dashboard
(:mod:`repro.telemetry.dashboard`) and the run-diff forensics
(:mod:`repro.telemetry.diff`) all consume.

Design constraints mirror the tracer's, in the same order:

1. **The disabled path must be free.**  ``None`` is the only "metrics
   off": every holder types its hub ``Optional[MetricsHub]`` and guards on
   ``is not None`` before touching any instrument, so a run without
   ``--metrics`` stays bit-identical to the unmetered seed.
2. **Metering must not perturb the simulation.**  Sampling is *pumped*
   from code that already runs (the simulator dispatch loop, the frame
   loops) and stamped retroactively at deterministic sim-time boundaries;
   the hub never schedules simulator events, spawns processes, or touches
   RNG state.
3. **Sim-time stamps.**  Every sample is stamped with a sample-period
   boundary in simulated ms, so two runs of the same (config, seed)
   produce byte-identical series dumps.

Instruments follow the OpenMetrics vocabulary:

* :class:`Counter` — monotone cumulative count (``*_total`` names);
* :class:`Gauge` — a value that goes up and down;
* :class:`Histogram` — fixed upper-bound buckets plus sum and count.

Each instrument is sampled into a ring-buffered ``(t_ms, value)`` series
(:attr:`MetricsHub.series`) every :attr:`MetricsHub.sample_period_ms` of
sim time.  *Probes* registered with :meth:`MetricsHub.register_probe`
run immediately before each sample so gauges mirroring external state
(queue depth, cache occupancy) are fresh at every boundary.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

# Bumped whenever the metrics-JSONL record layout changes; readers refuse
# files from a different version instead of misparsing them.
METRICS_SCHEMA_VERSION = 1

#: Default sim-time sampling cadence (10 Hz of simulated time).
DEFAULT_SAMPLE_PERIOD_MS = 100.0

#: Ring capacity per series: at the default cadence this holds ~400 s of
#: simulated time, far beyond any current run horizon; longer runs keep
#: the most recent window (which is all the SLO engine needs).
DEFAULT_RING_CAPACITY = 4096

#: Default latency buckets (ms upper bounds) for per-stage histograms;
#: 16.7 ms is the 60 FPS frame budget.  An implicit +Inf bucket follows.
LATENCY_BUCKETS_MS = (1.0, 2.0, 4.0, 8.0, 16.7, 25.0, 50.0, 100.0, 250.0)


def render_name(base: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """The full series name: ``base{k="v",...}`` with sorted label keys."""
    if not labels:
        return base
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{base}{{{inner}}}"


def split_name(name: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`render_name`: ``base{k="v"}`` -> (base, labels)."""
    if "{" not in name:
        return name, {}
    base, _, rest = name.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        labels[key] = value.strip('"')
    return base, labels


class Counter:
    """A monotone cumulative count (OpenMetrics counter)."""

    kind = "counter"
    __slots__ = ("name", "base", "labels", "value")

    def __init__(self, base: str, labels: Optional[Mapping[str, str]] = None):
        self.base = base
        self.labels = dict(labels or {})
        self.name = render_name(base, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters are monotone)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally maintained cumulative total.

        For probes that read a pre-existing monotone quantity (cache
        eviction count, membership epoch) instead of incrementing inline.
        """
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot go backwards "
                f"({self.value} -> {value})"
            )
        self.value = value

    def sample_value(self) -> float:
        """Current cumulative total (what the sampler records)."""
        return self.value


class Gauge:
    """A value that goes up and down (OpenMetrics gauge).

    Unset gauges (never ``set()``) produce no samples, so a series only
    starts once its quantity first exists (e.g. displayed SSIM in
    emulated runs never appears at all).
    """

    kind = "gauge"
    __slots__ = ("name", "base", "labels", "value")

    def __init__(self, base: str, labels: Optional[Mapping[str, str]] = None):
        self.base = base
        self.labels = dict(labels or {})
        self.name = render_name(base, labels)
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value of the gauged quantity."""
        self.value = value

    def sample_value(self) -> Optional[float]:
        """Current value, or None while the gauge has never been set."""
        return self.value


class Histogram:
    """Fixed-bucket histogram (OpenMetrics histogram).

    ``edges`` are inclusive upper bounds; an implicit +Inf bucket
    catches the overflow.  The sampled time series carries the
    cumulative observation *count* (rates diff cleanly); the full bucket
    vector, sum, and count are exported once per dump.
    """

    kind = "histogram"
    __slots__ = ("name", "base", "labels", "edges", "counts", "sum", "count")

    def __init__(
        self,
        base: str,
        labels: Optional[Mapping[str, str]] = None,
        edges: Sequence[float] = LATENCY_BUCKETS_MS,
    ):
        if len(edges) < 1:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges):
            raise ValueError("histogram edges must be sorted ascending")
        self.base = base
        self.labels = dict(labels or {})
        self.name = render_name(base, labels)
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)  # +Inf overflow last
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Drop one observation into its bucket (first edge >= value)."""
        index = len(self.edges)  # +Inf by default
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.sum / self.count

    def sample_value(self) -> float:
        """Cumulative observation count (rates diff cleanly over time)."""
        return float(self.count)


Instrument = Union[Counter, Gauge, Histogram]


class MetricsHub:
    """Registry of instruments plus their sim-time sampled series.

    Single-threaded, like the simulator.  Hot-path cost is one method
    call per instrument update; sampling work happens only at period
    boundaries.  ``on_sample`` (when set) is called after each boundary
    batch with the latest boundary time — the live dashboard's refresh
    hook.
    """

    def __init__(
        self,
        sample_period_ms: float = DEFAULT_SAMPLE_PERIOD_MS,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        if sample_period_ms <= 0:
            raise ValueError("sample_period_ms must be positive")
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        self.sample_period_ms = sample_period_ms
        self.ring_capacity = ring_capacity
        self._instruments: Dict[str, Instrument] = {}
        self.series: Dict[str, Deque[Tuple[float, float]]] = {}
        self._probes: List[Callable[[], None]] = []
        self._next_sample_ms = sample_period_ms
        self.samples_taken = 0
        self.on_sample: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Instrument registry
    # ------------------------------------------------------------------

    def _get(self, cls, base: str, labels, **kwargs) -> Instrument:
        name = render_name(base, labels)
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(base, labels, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(
        self, base: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get-or-create a counter (name convention: ``*_total``)."""
        return self._get(Counter, base, labels)

    def gauge(
        self, base: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """Get-or-create a gauge."""
        return self._get(Gauge, base, labels)

    def histogram(
        self,
        base: str,
        labels: Optional[Mapping[str, str]] = None,
        edges: Sequence[float] = LATENCY_BUCKETS_MS,
    ) -> Histogram:
        """Get-or-create a fixed-bucket histogram."""
        return self._get(Histogram, base, labels, edges=edges)

    def instruments(self) -> List[Instrument]:
        """All instruments in registration order."""
        return list(self._instruments.values())

    def register_probe(self, probe: Callable[[], None]) -> None:
        """Run ``probe()`` before every sample boundary (gauge refresh)."""
        self._probes.append(probe)

    # ------------------------------------------------------------------
    # Sampling (the deterministic sim-time cadence)
    # ------------------------------------------------------------------

    def maybe_sample(self, now_ms: float) -> None:
        """Record samples for every period boundary elapsed by ``now_ms``.

        Called from code that already runs (the dispatch loop, the frame
        loops); each crossed boundary is stamped *retroactively* at its
        exact boundary time with the instruments' current values, so the
        series is deterministic regardless of how often the pump fires.
        """
        if now_ms < self._next_sample_ms:
            return
        t = self._next_sample_ms
        while self._next_sample_ms <= now_ms:
            t = self._next_sample_ms
            self._sample_at(t)
            self._next_sample_ms += self.sample_period_ms
        if self.on_sample is not None:
            self.on_sample(t)

    def _sample_at(self, t_ms: float) -> None:
        for probe in self._probes:
            probe()
        series = self.series
        capacity = self.ring_capacity
        for name, instrument in self._instruments.items():
            value = instrument.sample_value()
            if value is None:
                continue
            ring = series.get(name)
            if ring is None:
                ring = series[name] = deque(maxlen=capacity)
            ring.append((t_ms, float(value)))
        self.samples_taken += 1

    def series_types(self) -> Dict[str, str]:
        """Instrument kind per sampled series name."""
        return {
            name: self._instruments[name].kind
            for name in self.series
            if name in self._instruments
        }


# ----------------------------------------------------------------------
# OpenMetrics / Prometheus text exposition
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Stable numeric formatting for the text exposition."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.10g}"


def _family(instrument: Instrument) -> str:
    """OpenMetrics family name (counter samples keep their _total suffix)."""
    base = instrument.base
    if instrument.kind == "counter" and base.endswith("_total"):
        return base[: -len("_total")]
    return base


def to_openmetrics(hub: MetricsHub) -> str:
    """Render the hub's instruments in OpenMetrics text exposition.

    One ``# TYPE`` line per metric family, histogram ``_bucket``/
    ``_sum``/``_count`` expansion, terminated by ``# EOF``.
    """
    lines: List[str] = []
    seen_families: set = set()
    for instrument in hub.instruments():
        family = _family(instrument)
        if family not in seen_families:
            seen_families.add(family)
            lines.append(f"# TYPE {family} {instrument.kind}")
        if instrument.kind == "histogram":
            cumulative = 0
            for edge, count in zip(
                list(instrument.edges) + ["+Inf"],
                instrument.counts,
            ):
                cumulative += count
                le = edge if edge == "+Inf" else _fmt(edge)
                labels = dict(instrument.labels)
                labels["le"] = str(le)
                lines.append(
                    f"{render_name(instrument.base + '_bucket', labels)} "
                    f"{cumulative}"
                )
            suffix_labels = instrument.labels or None
            lines.append(
                f"{render_name(instrument.base + '_sum', suffix_labels)} "
                f"{_fmt(instrument.sum)}"
            )
            lines.append(
                f"{render_name(instrument.base + '_count', suffix_labels)} "
                f"{instrument.count}"
            )
        else:
            value = instrument.sample_value()
            if value is None:
                continue  # unset gauge: no sample line
            lines.append(f"{instrument.name} {_fmt(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: Union[str, Path], hub: MetricsHub) -> int:
    """Write the text exposition; returns the line count."""
    text = to_openmetrics(hub)
    Path(path).write_text(text)
    return text.count("\n")


# ----------------------------------------------------------------------
# Schema-versioned JSONL series dump
# ----------------------------------------------------------------------


@dataclass
class MetricsDump:
    """A parsed metrics-JSONL file (see :func:`write_metrics_jsonl`)."""

    meta: Dict[str, Any] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    series_types: Dict[str, str] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    slos: List[Dict[str, Any]] = field(default_factory=list)


def write_metrics_jsonl(
    path: Union[str, Path],
    hub: MetricsHub,
    slo_results: Optional[Sequence[Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the schema-versioned series dump; returns the record count.

    One JSON record per line: a ``meta`` header, one ``series`` record
    per sampled instrument, one ``histogram`` record per histogram's
    final bucket state, and one ``slo`` record per evaluated objective
    (``slo_results`` from :meth:`repro.telemetry.slo.SloEngine.evaluate`).
    """
    records: List[Dict[str, Any]] = []
    header: Dict[str, Any] = {
        "v": METRICS_SCHEMA_VERSION,
        "kind": "meta",
        "sample_period_ms": hub.sample_period_ms,
        "samples": hub.samples_taken,
    }
    if meta:
        header.update(meta)
    records.append(header)
    types = hub.series_types()
    for name, ring in hub.series.items():
        records.append({
            "v": METRICS_SCHEMA_VERSION,
            "kind": "series",
            "name": name,
            "type": types.get(name, "gauge"),
            "samples": [[round(t, 6), v] for t, v in ring],
        })
    for instrument in hub.instruments():
        if instrument.kind != "histogram":
            continue
        records.append({
            "v": METRICS_SCHEMA_VERSION,
            "kind": "histogram",
            "name": instrument.name,
            "le": list(instrument.edges),
            "counts": list(instrument.counts),
            "sum": instrument.sum,
            "count": instrument.count,
        })
    for result in slo_results or ():
        records.append({"v": METRICS_SCHEMA_VERSION, "kind": "slo",
                        **result.to_dict()})
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
    return len(records)


_METRICS_FIELDS = {
    "series": ("name", "samples"),
    "histogram": ("name", "le", "counts", "sum", "count"),
}


def read_metrics_jsonl(path: Union[str, Path]) -> MetricsDump:
    """Load a series dump back (version- and shape-checked; raises
    ValueError located at ``PATH:LINE`` and naming the bad field)."""
    dump = MetricsDump()
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ValueError(f"{where}: record is not a JSON object: {payload!r}")
            version = payload.get("v")
            if version != METRICS_SCHEMA_VERSION:
                raise ValueError(
                    f"{where}: unsupported metrics schema version "
                    f"{version!r} (this reader understands "
                    f"v{METRICS_SCHEMA_VERSION})"
                )
            kind = payload.get("kind")
            for key in _METRICS_FIELDS.get(kind, ()):
                if key not in payload:
                    raise ValueError(f"{where}: {kind} record lacks field {key!r}")
            if kind == "meta":
                dump.meta = {
                    k: v for k, v in payload.items() if k not in ("v", "kind")
                }
            elif kind == "series":
                name = payload["name"]
                try:
                    dump.series[name] = [
                        (float(t), float(v)) for t, v in payload["samples"]
                    ]
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{where}: field 'samples' must be a list of "
                        "[t, value] number pairs"
                    ) from None
                dump.series_types[name] = payload.get("type", "gauge")
            elif kind == "histogram":
                dump.histograms[payload["name"]] = {
                    "le": payload["le"],
                    "counts": payload["counts"],
                    "sum": payload["sum"],
                    "count": payload["count"],
                }
            elif kind == "slo":
                dump.slos.append(
                    {k: v for k, v in payload.items() if k not in ("v", "kind")}
                )
            else:
                raise ValueError(
                    f"{where}: unknown metrics record kind {kind!r}"
                )
    return dump
