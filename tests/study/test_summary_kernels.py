"""The cohort-summary kernels against their pre-vectorization oracle.

``summary_oracle.py`` keeps the per-device ``np.median`` and the
``np.unique`` run splitter.  The current ``_median_utilizations`` and
``_runs_flat`` must agree with them bit for bit: floats are compared
through integer views, so a signed zero or a NaN payload would count
as a difference.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study import cohort
from repro.study.cohort import _flatten_rows, _median_utilizations, _runs_flat

from . import summary_oracle as oracle


def _bits(a):
    a = np.asarray(a)
    return a.view(np.int32 if a.dtype.itemsize == 4 else np.int64)


# ----------------------------------------------------------------------
# Segmented medians
# ----------------------------------------------------------------------

def _oracle_medians(avail, offsets, total_mb):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.array([
            oracle.median_utilization(
                avail[offsets[d]:offsets[d + 1]], int(total_mb[d])
            )
            for d in range(len(total_mb))
        ], dtype=np.float32)


def _segments(lengths, values):
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    return np.asarray(values, dtype=np.float32), offsets


# The engine's available MB is clipped above zero.
float32s = st.floats(min_value=0.0, max_value=3e4, width=32)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1,
             max_size=25),
    st.sampled_from([1, 2, 3, 7, 64]),
)
def test_median_utilizations_match_np_median(data, lengths, chunk):
    # A pool of few distinct values gives ties; a chunk of a few samples
    # puts chunk edges inside and between devices.
    pool = data.draw(st.lists(float32s, min_size=1, max_size=8))
    draw = st.one_of(float32s, st.sampled_from(pool))
    values = data.draw(
        st.lists(draw, min_size=sum(lengths), max_size=sum(lengths))
    )
    total_mb = np.array(data.draw(st.lists(
        st.sampled_from([1, 3, 1024, 2048, 3072, 4096, 6144, 8192]),
        min_size=len(lengths), max_size=len(lengths),
    )), dtype=np.int64)
    avail, offsets = _segments(lengths, values)
    old_chunk = cohort._MEDIAN_CHUNK
    cohort._MEDIAN_CHUNK = chunk
    try:
        got = _median_utilizations(avail, offsets, total_mb)
    finally:
        cohort._MEDIAN_CHUNK = old_chunk
    want = _oracle_medians(avail, offsets, total_mb)
    assert got.dtype == np.float32
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("lengths", [
    [1], [2], [3], [4], [0], [0, 0], [0, 1, 0, 2, 0], [5, 0, 6],
])
def test_median_utilizations_short_devices(lengths):
    rng = np.random.default_rng(sum(lengths) + len(lengths))
    avail, offsets = _segments(
        lengths, rng.uniform(10, 2000, sum(lengths))
    )
    total_mb = np.full(len(lengths), 2048, dtype=np.int64)
    got = _median_utilizations(avail, offsets, total_mb)
    want = _oracle_medians(avail, offsets, total_mb)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.isnan(got[np.diff(offsets) == 0]).all()


def test_median_utilizations_no_devices():
    got = _median_utilizations(
        np.empty(0, dtype=np.float32), np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    assert got.shape == (0,) and got.dtype == np.float32


def test_median_utilizations_across_chunk_edges(monkeypatch):
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 3 * 1024, 40)
    avail, offsets = _segments(
        lengths,
        rng.uniform(5, 7000, int(lengths.sum())).astype(np.float32),
    )
    total_mb = rng.choice([1024, 4096, 8192], len(lengths))
    monkeypatch.setattr(cohort, "_MEDIAN_CHUNK", 1000)
    got = _median_utilizations(avail, offsets, total_mb)
    want = _oracle_medians(avail, offsets, total_mb)
    assert np.array_equal(_bits(got), _bits(want))


# ----------------------------------------------------------------------
# Flat runs and row flattening
# ----------------------------------------------------------------------

def _assert_same_runs(values, offsets):
    got = _runs_flat(values, offsets)
    want = oracle.runs_flat(values, offsets)
    for field, expected in zip(("starts", "lengths", "values", "devs"),
                               want):
        actual = getattr(got, field)
        assert actual.dtype == expected.dtype, field
        assert np.array_equal(actual, expected), field


@pytest.mark.parametrize("lengths", [
    [0], [0, 0, 0], [3], [0, 3], [3, 0], [2, 0, 0, 4, 0], [1, 1, 1],
])
def test_runs_flat_zero_length_devices(lengths):
    # [0] and [0, 0, 0] have no samples at all.
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    values = np.array([1, 1, 2, 2, 2, 0][: int(offsets[-1])], dtype=np.int8)
    _assert_same_runs(values, offsets)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=0, max_value=3), max_size=12),
    min_size=1, max_size=12,
))
def test_runs_flat_matches_unique_splitter(devices):
    offsets = np.concatenate(
        ([0], np.cumsum([len(d) for d in devices]))
    ).astype(np.int64)
    values = np.array([v for d in devices for v in d], dtype=np.int8)
    _assert_same_runs(values, offsets)


@pytest.mark.parametrize("n", [[0, 0], [0, 3, 0], [4, 0, 2], [4, 4]])
def test_flatten_rows_zero_length_devices(n):
    n = np.array(n, dtype=np.int64)
    arr = np.arange(len(n) * 4, dtype=np.float32).reshape(len(n), 4)
    offsets = np.concatenate(([0], np.cumsum(n))).astype(np.int64)
    flat = _flatten_rows(arr, n, offsets)
    assert flat.dtype == arr.dtype
    assert np.array_equal(
        flat, np.concatenate([arr[i, :k] for i, k in enumerate(n)])
    )
