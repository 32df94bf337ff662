"""Declarative SLOs with multi-window burn-rate alert evaluation.

An :class:`SloSpec` states an objective over the metrics series — e.g.
"deadline-miss rate ≤ 1% over a 2 s rolling window" or "displayed SSIM
≥ 0.97" — and the :class:`SloEngine` evaluates it *post hoc* over a
:attr:`~repro.telemetry.metrics.MetricsHub.series` map (or a parsed
:class:`~repro.telemetry.metrics.MetricsDump`).  Evaluation is a pure
function of the sampled series: replaying the same run produces the
same attainment numbers and the same alert firings, bit for bit.

Burn rate is the SRE convention: how fast the error budget is being
consumed, as a multiple of the steady rate that would exactly exhaust
it.  ``burn == 1.0`` means "exactly at the objective"; ``burn == 10``
means "burning budget ten times too fast".  Alerts use the classic
*multi-window* rule — a short window (fast detection) AND a long window
(sustained, not a blip) must both exceed the rule's threshold — and fire
on the rising edge only, so one sustained episode produces one alert per
rule, not one per sample.

Three objective kinds cover the session's signals:

* ``ratio`` — bad-event counter over total-event counter, windowed by
  counter deltas (deadline misses / frames);
* ``value_min`` — a gauge whose windowed aggregate must stay **at or
  above** ``bound`` (displayed SSIM); burn is the deficit over the
  budget ``1 - bound`` (override with ``budget``);
* ``value_max`` — a gauge whose windowed aggregate must stay **at or
  below** ``bound`` (join latency p99); burn is ``value / bound``.

``percentile`` switches the gauge aggregate from mean to a percentile
(p99-style objectives).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics.stats import percentile as _percentile
from .tracer import SESSION_TRACK, SpanTracer

#: Alert when budget burns >= threshold x in BOTH windows (short AND
#: long).  The defaults are scaled-down versions of the SRE book's
#: 5m/1h @ 14.4 and 30m/6h @ 6 pairs, fit to multi-second sim runs:
#: a fast pair for acute outages, a slow pair for sustained degradation.
DEFAULT_BURN_RULES: Tuple["BurnRule", ...] = ()  # rebound below


@dataclass(frozen=True)
class BurnRule:
    """One multi-window burn-rate alerting rule."""

    short_ms: float
    long_ms: float
    threshold: float

    def __post_init__(self) -> None:
        if not 0 < self.short_ms < self.long_ms:
            raise ValueError("need 0 < short_ms < long_ms")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


DEFAULT_BURN_RULES = (
    BurnRule(short_ms=500.0, long_ms=2000.0, threshold=10.0),
    BurnRule(short_ms=1000.0, long_ms=4000.0, threshold=2.5),
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective over the metrics series."""

    name: str
    #: "ratio" (bad/total counters), "value_min", or "value_max" (gauge).
    kind: str
    #: Series name of the bad-event counter (ratio) or the gauge (value_*).
    metric: str
    #: The objective: max bad fraction (ratio), min value (value_min),
    #: or max value (value_max).
    bound: float
    #: Series name of the total-event counter (ratio kind only).
    total: Optional[str] = None
    #: Compliance window for attainment accounting.
    window_ms: float = 2000.0
    #: Aggregate gauge windows at this percentile instead of the mean.
    percentile: Optional[float] = None
    #: Error budget for value_min burn (default ``1 - bound``, which
    #: suits unit-interval metrics like SSIM).
    budget: Optional[float] = None
    rules: Tuple[BurnRule, ...] = DEFAULT_BURN_RULES

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "value_min", "value_max"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "ratio" and not self.total:
            raise ValueError("ratio SLOs need a total counter series")
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.percentile is not None and not 0 <= self.percentile <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SloAlert:
    """One rising-edge firing of a burn-rate rule."""

    slo: str
    t_ms: float
    short_ms: float
    long_ms: float
    threshold: float
    burn_short: float
    burn_long: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready alert record (embedded in SLO dump records)."""
        return {
            "t_ms": round(self.t_ms, 6),
            "short_ms": self.short_ms,
            "long_ms": self.long_ms,
            "threshold": self.threshold,
            "burn_short": round(self.burn_short, 4),
            "burn_long": round(self.burn_long, 4),
        }


@dataclass
class SloResult:
    """One objective's verdict over a whole run."""

    spec: SloSpec
    #: Fraction of evaluated boundaries whose compliance-window burn was
    #: <= 1.0 (None when the driving series never produced a window).
    attainment: Optional[float]
    evaluated: int
    compliant: int
    alerts: List[SloAlert] = field(default_factory=list)
    #: Worst (t_ms, burn) compliance windows, highest burn first.
    worst_windows: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def worst_burn(self) -> float:
        """Highest compliance-window burn seen (0 when never evaluated)."""
        if not self.worst_windows:
            return 0.0
        return self.worst_windows[0][1]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the ``kind: "slo"`` dump record shape)."""
        return {
            "name": self.spec.name,
            "slo_kind": self.spec.kind,
            "metric": self.spec.metric,
            "bound": self.spec.bound,
            "window_ms": self.spec.window_ms,
            "attainment": (
                None if self.attainment is None else round(self.attainment, 6)
            ),
            "evaluated": self.evaluated,
            "compliant": self.compliant,
            "alerts": [a.to_dict() for a in self.alerts],
            "worst": [[round(t, 6), round(b, 4)] for t, b in
                      self.worst_windows],
        }


Series = Sequence[Tuple[float, float]]


def _counter_at(series: Series, times: Sequence[float], t_ms: float) -> float:
    """Step-function counter value at ``t_ms`` (0 before the first sample)."""
    i = bisect_right(times, t_ms)
    if i == 0:
        return 0.0
    return series[i - 1][1]


def _window_values(
    series: Series, times: Sequence[float], t_ms: float, window_ms: float
) -> List[float]:
    """Gauge samples in the half-open window ``(t - w, t]``."""
    lo = bisect_right(times, t_ms - window_ms)
    hi = bisect_right(times, t_ms)
    return [series[i][1] for i in range(lo, hi)]


def default_slos() -> Tuple[SloSpec, ...]:
    """The session's stock objectives (the paper's quantitative promises)."""
    return (
        # ≥ 60 FPS promise: at most 1% of frames may miss the prefetch
        # deadline over any 2 s compliance window.
        SloSpec(
            name="deadline_miss_rate",
            kind="ratio",
            metric="deadline_misses_total",
            total="frames_total",
            bound=0.01,
            window_ms=2000.0,
        ),
        # Visual-quality promise: windowed mean displayed SSIM >= 0.97.
        SloSpec(
            name="displayed_ssim",
            kind="value_min",
            metric="displayed_ssim",
            bound=0.97,
            window_ms=2000.0,
        ),
        # Membership responsiveness: p99 join latency <= 1500 ms over a
        # 5 s window (PUN room join plus supervisor admission).
        SloSpec(
            name="join_latency_p99",
            kind="value_max",
            metric="join_latency_ms",
            bound=1500.0,
            window_ms=5000.0,
            percentile=99.0,
        ),
    )


class SloEngine:
    """Evaluates a set of SLO specs over sampled metric series."""

    def __init__(self, specs: Optional[Sequence[SloSpec]] = None) -> None:
        self.specs: Tuple[SloSpec, ...] = tuple(
            default_slos() if specs is None else specs
        )

    # ------------------------------------------------------------------
    # Burn computation
    # ------------------------------------------------------------------

    def _burn(
        self,
        spec: SloSpec,
        series_map: Mapping[str, Series],
        times_map: Mapping[str, Sequence[float]],
        t_ms: float,
        window_ms: float,
    ) -> Optional[float]:
        """Budget burn rate over ``(t - w, t]``; None when unevaluable."""
        if spec.kind == "ratio":
            bad = series_map.get(spec.metric, ())
            total = series_map.get(spec.total or "", ())
            if not total:
                return None
            total_times = times_map[spec.total or ""]
            total_delta = (
                _counter_at(total, total_times, t_ms)
                - _counter_at(total, total_times, t_ms - window_ms)
            )
            if total_delta <= 0:
                return 0.0  # no events in window: no budget burned
            if bad:
                bad_times = times_map[spec.metric]
                bad_delta = (
                    _counter_at(bad, bad_times, t_ms)
                    - _counter_at(bad, bad_times, t_ms - window_ms)
                )
            else:
                bad_delta = 0.0
            return (bad_delta / total_delta) / spec.bound
        series = series_map.get(spec.metric, ())
        if not series:
            return None
        values = _window_values(
            series, times_map[spec.metric], t_ms, window_ms
        )
        if not values:
            return None
        if spec.percentile is not None:
            aggregate = _percentile(values, spec.percentile)
        else:
            aggregate = sum(values) / len(values)
        if spec.kind == "value_min":
            budget = spec.budget
            if budget is None:
                budget = max(1e-9, 1.0 - spec.bound)
            return max(0.0, spec.bound - aggregate) / budget
        return aggregate / spec.bound  # value_max

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate_spec(
        self, spec: SloSpec, series_map: Mapping[str, Series]
    ) -> SloResult:
        """Evaluate one objective over a series map (pure, deterministic)."""
        driver_name = spec.total if spec.kind == "ratio" else spec.metric
        driver = series_map.get(driver_name or "", ())
        times_map: Dict[str, Sequence[float]] = {
            name: [t for t, _ in series]
            for name, series in series_map.items()
        }
        evaluated = 0
        compliant = 0
        windows: List[Tuple[float, float]] = []
        alerts: List[SloAlert] = []
        firing = [False] * len(spec.rules)
        for t_ms, _ in driver:
            burn = self._burn(spec, series_map, times_map, t_ms,
                              spec.window_ms)
            if burn is None:
                continue
            evaluated += 1
            if burn <= 1.0:
                compliant += 1
            windows.append((t_ms, burn))
            for i, rule in enumerate(spec.rules):
                burn_short = self._burn(
                    spec, series_map, times_map, t_ms, rule.short_ms
                )
                burn_long = self._burn(
                    spec, series_map, times_map, t_ms, rule.long_ms
                )
                now_firing = (
                    burn_short is not None
                    and burn_long is not None
                    and burn_short >= rule.threshold
                    and burn_long >= rule.threshold
                )
                if now_firing and not firing[i]:
                    alerts.append(SloAlert(
                        slo=spec.name, t_ms=t_ms,
                        short_ms=rule.short_ms, long_ms=rule.long_ms,
                        threshold=rule.threshold,
                        burn_short=burn_short, burn_long=burn_long,
                    ))
                firing[i] = now_firing
        windows.sort(key=lambda tb: (-tb[1], tb[0]))
        return SloResult(
            spec=spec,
            attainment=(compliant / evaluated) if evaluated else None,
            evaluated=evaluated,
            compliant=compliant,
            alerts=alerts,
            worst_windows=windows[:3],
        )

    def evaluate(self, series_map: Mapping[str, Series]) -> List[SloResult]:
        """Evaluate every spec; results in spec order."""
        return [self.evaluate_spec(spec, series_map) for spec in self.specs]


def emit_slo_instants(
    tracer: Optional[SpanTracer], results: Sequence[SloResult]
) -> int:
    """Mirror alert firings into the tracer as ``slo.<name>`` instants.

    Returns the number of instants emitted; no tracer (None) emits
    none.  Called after the run, so the instants land in the trace file
    alongside the stage spans they explain.
    """
    if tracer is None:
        return 0
    emitted = 0
    for result in results:
        for alert in result.alerts:
            tracer.instant(
                f"slo.{alert.slo}", SESSION_TRACK, "slo", alert.t_ms,
                cat="slo",
                args={
                    "burn_short": round(alert.burn_short, 3),
                    "burn_long": round(alert.burn_long, 3),
                    "threshold": alert.threshold,
                    "short_ms": alert.short_ms,
                    "long_ms": alert.long_ms,
                },
            )
            emitted += 1
    return emitted


def results_from_dump(dump) -> List[Dict[str, Any]]:
    """SLO summaries from a parsed dump: stored records, else re-evaluated.

    Returns plain dicts shaped like :meth:`SloResult.to_dict` either way,
    so ``repro report`` renders stored and recomputed results identically.
    """
    if dump.slos:
        return list(dump.slos)
    engine = SloEngine()
    return [r.to_dict() for r in engine.evaluate(dump.series)]
