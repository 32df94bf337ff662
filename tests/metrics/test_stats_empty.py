"""Pin the unified empty-input contract of ``repro.metrics.stats``.

Every aggregate in the module raises the same documented
``ValueError("<fn>: empty input sequence")`` on empty input — including
``histogram``, which historically returned all-zero counts and let an
empty series masquerade as a measured one.  These tests pin the message
shape so callers can rely on it, and pin that numpy arrays (whose truth
value is ambiguous under ``if not values``) take the same path as lists.
"""

import numpy as np
import pytest

from repro.metrics.stats import (
    histogram,
    mean,
    percentile,
    percentiles,
    tail_summary,
)

CASES = [
    ("mean", lambda v: mean(v)),
    ("percentile", lambda v: percentile(v, 50.0)),
    ("percentiles", lambda v: percentiles(v, (50.0, 95.0))),
    ("tail_summary", lambda v: tail_summary(v)),
    ("histogram", lambda v: histogram(v, [0.0, 1.0])),
]


class TestEmptyInputContract:
    @pytest.mark.parametrize("name,call", CASES, ids=[c[0] for c in CASES])
    def test_empty_list_raises_named_valueerror(self, name, call):
        with pytest.raises(ValueError, match=f"{name}: empty input sequence"):
            call([])

    @pytest.mark.parametrize("name,call", CASES, ids=[c[0] for c in CASES])
    def test_empty_numpy_array_raises_same(self, name, call):
        with pytest.raises(ValueError, match=f"{name}: empty input sequence"):
            call(np.array([]))

    @pytest.mark.parametrize("name,call", CASES, ids=[c[0] for c in CASES])
    def test_singleton_is_accepted(self, name, call):
        call([1.0])  # must not raise

    def test_histogram_no_longer_returns_zero_counts_on_empty(self):
        # The old behavior — silently returning all-zero buckets — must
        # never come back: an empty series is not a measured series.
        with pytest.raises(ValueError):
            histogram([], [0.0, 10.0, 20.0])
