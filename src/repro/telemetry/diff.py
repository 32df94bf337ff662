"""Run-diff forensics over two metrics-JSONL series dumps.

``repro report --diff A B`` aligns two dumps by metric name and sim
time and judges each series against a per-metric threshold rule, the
same exit-code contract as ``benchmarks/check_regression.py``: 0 clean,
1 regression, 2 parse/usage error.

Comparison semantics per instrument type:

* **counters** — compared on their final cumulative value (the run
  total); deltas beyond the rule's threshold in the bad direction fail;
* **gauges / histograms** — compared on the mean over time-aligned
  samples (sim-time stamps are deterministic, so two runs of the same
  config align exactly); the maximum pointwise divergence is also
  reported for forensics;
* a series present in only one run is always a regression — a signal
  silently vanishing (or appearing) must not read as "no change".

Rules match on the longest base-name prefix, so ``deadline_misses``
matches ``deadline_misses_total`` and every labeled variant.  Unmatched
series are compared informationally (reported, never failing), which
keeps the diff useful as new instrumentation lands before rules exist
for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsDump, split_name

#: Directions: which way a delta counts against the run under test (B).
HIGH_BAD = "high_bad"   # B above A beyond threshold regresses
LOW_BAD = "low_bad"     # B below A beyond threshold regresses
INFO = "info"           # reported only, never a regression


@dataclass(frozen=True)
class DiffRule:
    """Per-metric-prefix comparison policy."""

    prefix: str
    direction: str
    #: Additive slack before a delta counts.
    tolerance_abs: float = 0.0
    #: Relative slack as a fraction of |A|; threshold is
    #: ``tolerance_abs + tolerance_rel * |A|``.
    tolerance_rel: float = 0.0

    def threshold(self, a_value: float) -> float:
        """Allowed |delta| before a comparison against ``a_value`` fails."""
        return self.tolerance_abs + self.tolerance_rel * abs(a_value)


#: Default policy for the session's stock instrumentation.  Counters of
#: work done (frames) regress when they *fall*; counters of failures
#: (misses, drops, stales, evictions) regress when they *rise*; quality
#: gauges regress when they fall; cost gauges when they rise.
DEFAULT_DIFF_RULES: Tuple[DiffRule, ...] = (
    DiffRule("frames_total", LOW_BAD, tolerance_abs=1.0, tolerance_rel=0.02),
    DiffRule("deadline_misses", HIGH_BAD, tolerance_abs=1.0,
             tolerance_rel=0.05),
    DiffRule("frames_dropped", HIGH_BAD, tolerance_abs=1.0,
             tolerance_rel=0.05),
    DiffRule("stale_frames", HIGH_BAD, tolerance_abs=1.0, tolerance_rel=0.05),
    DiffRule("cache_hit_ratio", LOW_BAD, tolerance_abs=0.05),
    DiffRule("cache_evictions", HIGH_BAD, tolerance_abs=2.0,
             tolerance_rel=0.10),
    DiffRule("deadline_margin_ms", LOW_BAD, tolerance_abs=2.0),
    DiffRule("abr_crf", HIGH_BAD, tolerance_abs=3.0),
    DiffRule("abr_degraded", HIGH_BAD, tolerance_abs=0.25),
    DiffRule("link_utilization", HIGH_BAD, tolerance_abs=0.10),
    DiffRule("join_latency_ms", HIGH_BAD, tolerance_abs=100.0,
             tolerance_rel=0.25),
    DiffRule("members_active", LOW_BAD, tolerance_abs=0.5),
)


def rule_for(
    name: str, rules: Sequence[DiffRule] = DEFAULT_DIFF_RULES
) -> Optional[DiffRule]:
    """Longest-prefix rule match on the series' base name, or None."""
    base, _ = split_name(name)
    best: Optional[DiffRule] = None
    for rule in rules:
        if base.startswith(rule.prefix):
            if best is None or len(rule.prefix) > len(best.prefix):
                best = rule
    return best


@dataclass(frozen=True)
class DiffRow:
    """One series' comparison verdict."""

    name: str
    direction: str
    a_value: Optional[float]
    b_value: Optional[float]
    #: Largest pointwise |B - A| over aligned timestamps (gauges only).
    max_divergence: Optional[float]
    regressed: bool
    note: str = ""

    def line(self) -> str:
        """One human-readable report row."""
        def show(v):
            return "-" if v is None else f"{v:.4g}"

        verdict = "FAIL" if self.regressed else (
            "info" if self.direction == INFO else "ok"
        )
        extra = f"  ({self.note})" if self.note else ""
        return (f"  {self.name:<46.46} A {show(self.a_value):>9}  "
                f"B {show(self.b_value):>9}  {verdict}{extra}")


def _aligned(
    a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float, float]]:
    """(t, a_value, b_value) for timestamps present in both series."""
    b_map = dict(b)
    return [(t, v, b_map[t]) for t, v in a if t in b_map]


def _compare_series(
    name: str,
    series_type: str,
    a: Sequence[Tuple[float, float]],
    b: Sequence[Tuple[float, float]],
    rule: Optional[DiffRule],
) -> DiffRow:
    direction = rule.direction if rule is not None else INFO
    if series_type == "counter":
        a_value = a[-1][1] if a else 0.0
        b_value = b[-1][1] if b else 0.0
        max_div = None
        note = "final total"
    else:
        pairs = _aligned(a, b)
        if not pairs:
            # Different sampling grids (e.g. different durations with no
            # overlap) still get a mean-vs-mean comparison.
            a_value = sum(v for _, v in a) / len(a) if a else 0.0
            b_value = sum(v for _, v in b) / len(b) if b else 0.0
            max_div = None
            note = "mean (no aligned samples)"
        else:
            a_value = sum(av for _, av, _ in pairs) / len(pairs)
            b_value = sum(bv for _, _, bv in pairs) / len(pairs)
            max_div = max(abs(bv - av) for _, av, bv in pairs)
            note = f"mean over {len(pairs)} aligned samples"
    regressed = False
    if rule is not None and direction != INFO:
        delta = b_value - a_value
        bad = delta if direction == HIGH_BAD else -delta
        regressed = bad > rule.threshold(a_value)
    return DiffRow(
        name=name, direction=direction, a_value=a_value, b_value=b_value,
        max_divergence=max_div, regressed=regressed, note=note,
    )


def diff_dumps(
    a: MetricsDump,
    b: MetricsDump,
    rules: Sequence[DiffRule] = DEFAULT_DIFF_RULES,
) -> List[DiffRow]:
    """Compare two dumps series-by-series; rows sorted by name.

    Identical dumps produce zero regressed rows; any asymmetry in the
    series *set* is itself a regression.
    """
    rows: List[DiffRow] = []
    names = sorted(set(a.series) | set(b.series))
    for name in names:
        rule = rule_for(name, rules)
        in_a = name in a.series
        in_b = name in b.series
        if not (in_a and in_b):
            missing = "B" if in_a else "A"
            rows.append(DiffRow(
                name=name,
                direction=rule.direction if rule else INFO,
                a_value=a.series[name][-1][1] if in_a and a.series[name]
                else None,
                b_value=b.series[name][-1][1] if in_b and b.series[name]
                else None,
                max_divergence=None,
                regressed=True,
                note=f"series missing in run {missing}",
            ))
            continue
        series_type = (
            a.series_types.get(name) or b.series_types.get(name) or "gauge"
        )
        rows.append(_compare_series(
            name, series_type, a.series[name], b.series[name], rule
        ))
    return rows


def render_diff(
    rows: Sequence[DiffRow], label_a: str = "A", label_b: str = "B"
) -> str:
    """Human-readable diff report (regressions first, then the rest)."""
    failures = [r for r in rows if r.regressed]
    lines = [f"metrics diff: A={label_a}  B={label_b}  "
             f"({len(rows)} series, {len(failures)} regression(s))"]
    for row in sorted(rows, key=lambda r: (not r.regressed, r.name)):
        lines.append(row.line())
    return "\n".join(lines)
