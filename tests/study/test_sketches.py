"""Property tests for the streaming mergeable sketches.

The shard-invariance guarantee of the fleet engine rests on two
algebraic facts proved here by hypothesis: t-digest ``merge`` is
exactly associative and commutative (bit-for-bit, not approximately),
and the counter-histogram quantile helpers replicate numpy's
``percentile``/``median`` on the expanded multiset exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study.sketches import (
    TDigest,
    dwell_histogram,
    median_from_counts,
    merge_count_dicts,
    percentile_from_counts,
    sorted_items,
)

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    min_size=0, max_size=60,
)

hist_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=9),
    min_size=1, max_size=25,
)


def _digest(values, compression=20):
    return TDigest.from_values(values, compression=compression)


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(values_strategy, values_strategy)
def test_merge_commutative_bitwise(a_vals, b_vals):
    a, b = _digest(a_vals), _digest(b_vals)
    assert a.merge(b) == b.merge(a)


@settings(max_examples=80, deadline=None)
@given(values_strategy, values_strategy, values_strategy)
def test_merge_associative_bitwise(a_vals, b_vals, c_vals):
    a, b, c = _digest(a_vals), _digest(b_vals), _digest(c_vals)
    assert (a.merge(b)).merge(c) == a.merge(b.merge(c))


@settings(max_examples=50, deadline=None)
@given(values_strategy)
def test_merge_with_empty_is_identity(vals):
    d = _digest(vals)
    assert d.merge(TDigest.empty()) == d
    assert TDigest.empty().merge(d) == d


#: Centroids drawn from a small pool, so a list of digests holds
#: duplicate (mean, weight) pairs and equal means with different
#: weights; ``min_size=0`` gives empty digests.
centroids_strategy = st.lists(
    st.tuples(
        st.sampled_from([-2.5, 0.0, 1.0, 1.0 + 2**-52, 3.75, 1e6]),
        st.sampled_from([1.0, 2.0, 3.0, 0.5]),
    ),
    min_size=0, max_size=8,
)


def _raw_digest(centroids, compression):
    """A canonical digest straight from (mean, weight) pairs."""
    means = np.array([m for m, _ in centroids], dtype=np.float64)
    weights = np.array([w for _, w in centroids], dtype=np.float64)
    order = np.lexsort((weights, means))
    return TDigest(means[order], weights[order], compression)


def _digest_bytes(d):
    return d.means.tobytes(), d.weights.tobytes(), d.compression


def _split(items, cuts):
    """``items`` cut into consecutive non-empty groups at ``cuts``."""
    bounds = [0] + sorted({c % len(items) for c in cuts} - {0}) + [len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(centroids_strategy, min_size=1, max_size=7),
    st.lists(st.integers(min_value=0, max_value=6), max_size=4),
)
def test_nary_merge_equals_fold_and_any_grouping_bitwise(lists, cuts):
    digests = [_raw_digest(c, compression=20 + i) for i, c in enumerate(lists)]
    first, *rest = digests
    at_once = first.merge(*rest)
    left = first
    for d in rest:
        left = left.merge(d)
    right = digests[-1]
    for d in reversed(digests[:-1]):
        right = d.merge(right)
    groups = [g[0].merge(*g[1:]) for g in _split(digests, cuts)]
    regrouped = groups[0].merge(*groups[1:])
    expected = _digest_bytes(at_once)
    assert _digest_bytes(left) == expected
    assert _digest_bytes(right) == expected
    assert _digest_bytes(regrouped) == expected
    assert at_once.compression == first.compression


def test_merge_preserves_total_weight():
    a = _digest([1.0, 2.0, 3.0])
    b = _digest([4.0, 5.0])
    assert a.merge(b).total_weight == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Quantile accuracy
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=32),
        min_size=2, max_size=400,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_quantile_within_value_range_and_monotone(vals, q):
    d = _digest(vals, compression=50)
    estimate = d.quantile(q)
    assert min(vals) <= estimate <= max(vals)
    assert d.quantile(0.0) <= d.quantile(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_quantile_rank_error_bound(seed):
    """k0 digests keep rank error within a few centroid widths.

    For n uniform samples at compression c, the classic bound is rank
    error O(n/c); we assert the empirical rank of the q-estimate stays
    within 3·n/c of q·n at the quartiles — loose enough to be stable,
    tight enough to catch a broken size limit.
    """
    rng = np.random.default_rng(seed)
    n, compression = 2000, 100
    vals = rng.random(n)
    d = TDigest.from_values(np.sort(vals), compression=compression)
    # k0's 4·W·q·(1-q)/c size limit keeps tail centroids near-singleton,
    # so the centroid count lands at a small multiple of c — but far
    # below n (i.e. compression actually happened).
    assert d.n_centroids <= 4 * compression
    assert d.n_centroids < n / 4
    tolerance = 3.0 * n / compression
    for q in (0.25, 0.5, 0.75):
        estimate = d.quantile(q)
        empirical_rank = float(np.sum(vals <= estimate))
        assert abs(empirical_rank - q * n) <= tolerance


def test_single_value_digest():
    d = _digest([42.0])
    assert d.quantile(0.0) == 42.0
    assert d.quantile(1.0) == 42.0
    assert d.n_centroids == 1


def test_empty_digest_quantile_raises():
    with pytest.raises(ValueError):
        TDigest.empty().quantile(0.5)


def test_cdf_bounds():
    d = _digest([1.0, 2.0, 3.0, 4.0])
    assert d.cdf(0.0) == 0.0
    assert d.cdf(10.0) == 1.0
    assert 0.0 <= d.cdf(2.5) <= 1.0


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


def test_from_counts_rejects_unsorted():
    with pytest.raises(ValueError):
        TDigest.from_counts(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
