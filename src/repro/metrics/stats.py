"""Small statistics helpers shared by the evaluation harness.

Edge-case contract: every aggregate in this module (:func:`mean`,
:func:`percentile`, :func:`percentiles`, :func:`tail_summary`,
:func:`histogram`) raises ``ValueError`` with the
message ``"<fn>: empty input sequence"`` when given no values — there
is no NaN/sentinel path, so a silently empty series can never masquerade
as a zero in a report.  Emptiness is tested with ``len()``, which works
for lists and numpy arrays alike (``if not values:`` is ambiguous for
arrays).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _require_nonempty(values: Sequence[float], fn: str) -> None:
    """The module-wide empty-input contract (see module docstring)."""
    if len(values) == 0:
        raise ValueError(f"{fn}: empty input sequence")


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (rejects empty input)."""
    _require_nonempty(values, "mean")
    return float(np.mean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (q in [0, 100]; rejects empty input)."""
    _require_nonempty(values, "percentile")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    return float(np.percentile(values, q))


def percentiles(
    values: Sequence[float], qs: Sequence[float]
) -> List[float]:
    """Several percentiles in one pass (one sort instead of ``len(qs)``)."""
    _require_nonempty(values, "percentiles")
    if any(not 0.0 <= q <= 100.0 for q in qs):
        raise ValueError("every q must be in [0, 100]")
    return [float(v) for v in np.percentile(values, list(qs))]


def tail_summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(p50, p95, p99) — the tail triple the QoE tables report.

    Tail latency, not the mean, is what a deadline-driven display feels:
    one p99 frame interval of 50 ms is a visible hitch that a 16.7 ms
    mean happily hides.  Rejects empty input (module contract), with
    the ``tail_summary`` name in the message rather than the inner
    helper's.
    """
    _require_nonempty(values, "tail_summary")
    p50, p95, p99 = percentiles(values, (50.0, 95.0, 99.0))
    return p50, p95, p99


def histogram(values: Sequence[float], edges: Sequence[float]) -> List[int]:
    """Counts per [edges[i], edges[i+1]) bin; last bin closed on the right.

    Rejects empty input like every other aggregate here (np.histogram
    would quietly return all-zero counts, which a report cannot tell
    apart from "all values fell outside the edges").
    """
    _require_nonempty(values, "histogram")
    if len(edges) < 2:
        raise ValueError("need at least 2 bin edges")
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=np.asarray(edges))
    return counts.tolist()
