"""Property tests for the fleet's mergeable counters.

The shard-invariance guarantee of the fleet engine rests on two facts
proved here by hypothesis: merging count histograms is exact and
grouping-independent, and the histogram quantile helpers replicate
numpy's ``percentile``/``median`` on the expanded multiset exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study.sketches import (
    dwell_histogram,
    median_from_counts,
    merge_count_dicts,
    percentile_from_counts,
    sorted_items,
)

hist_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=9),
    min_size=1, max_size=25,
)


def _split(items, cuts):
    """``items`` cut into consecutive non-empty groups at ``cuts``."""
    bounds = [0] + sorted({c % len(items) for c in cuts} - {0}) + [len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Histogram counters
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(hist_strategy, hist_strategy)
def test_merge_count_dicts_is_pointwise_sum(a, b):
    merged = merge_count_dicts(a, b)
    for key in set(a) | set(b):
        assert merged[key] == a.get(key, 0) + b.get(key, 0)
    # Associativity via commutativity of per-key integer addition.
    assert merge_count_dicts(a, b) == merge_count_dicts(b, a)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=0, max_value=9),
            max_size=6,
        ),
        max_size=7,
    ),
    st.lists(st.integers(min_value=0, max_value=6), max_size=4),
)
def test_nary_merge_count_dicts_equals_fold_and_any_grouping(hists, cuts):
    at_once = merge_count_dicts(*hists)
    left: dict = {}
    for hist in hists:
        left = merge_count_dicts(left, hist)
    # Same sums and the same key order (first appearance).
    assert list(at_once.items()) == list(left.items())
    assert list(at_once) == list(dict.fromkeys(k for h in hists for k in h))
    if hists:
        groups = [merge_count_dicts(*g) for g in _split(hists, cuts)]
        regrouped = merge_count_dicts(*groups)
        assert list(regrouped.items()) == list(at_once.items())
    assert merge_count_dicts() == {}


@settings(max_examples=60, deadline=None)
@given(hist_strategy, st.floats(min_value=0.0, max_value=100.0))
def test_percentile_matches_numpy_exactly(hist, q):
    values, counts = sorted_items(hist)
    expanded = np.repeat(values, counts).astype(np.float64)
    assert percentile_from_counts(values, counts, q) == float(
        np.percentile(expanded, q)
    )


@settings(max_examples=60, deadline=None)
@given(hist_strategy)
def test_median_matches_numpy_exactly(hist):
    values, counts = sorted_items(hist)
    expanded = np.repeat(values, counts).astype(np.float64)
    assert median_from_counts(values, counts) == float(np.median(expanded))


def test_dwell_histogram_roundtrip():
    durations = np.array([6, 6, 7, 120, 6], dtype=np.int64)
    hist = dwell_histogram(durations)
    assert hist == {6: 3, 7: 1, 120: 1}
    values, counts = sorted_items(hist)
    assert list(values) == [6, 7, 120]
    assert list(counts) == [3, 1, 1]
    assert dwell_histogram(np.empty(0, dtype=np.int64)) == {}

