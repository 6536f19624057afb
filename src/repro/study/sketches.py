"""Exact mergeable counters for the fleet population engine.

The million-device pipeline cannot hold per-device arrays, so each
cohort reduces its per-second samples to integer counters and
histograms merged by addition (:func:`merge_count_dicts`, n-ary, so a
fleet merges all its cohorts in one pass).  Dwell times are kept as
``{duration: count}`` histograms so Figure 6's quartiles can be
computed *exactly* at finalize time (see :func:`percentile_from_counts`,
a bit-exact replica of ``np.percentile(..)``'s linear interpolation,
and :func:`median_from_counts`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "merge_count_dicts",
    "percentile_from_counts",
    "median_from_counts",
]


def merge_count_dicts(*hists: Dict[int, int]) -> Dict[int, int]:
    """Pointwise sum of integer histograms (associative, exact).

    Keys keep their first-appearance order across ``hists``, as a left
    fold of pairwise merges would leave them.
    """
    out: Dict[int, int] = {}
    for hist in hists:
        for key, count in hist.items():
            out[key] = out.get(key, 0) + count
    return out


def _order_stats_from_counts(
    values: np.ndarray, counts: np.ndarray, ranks: Sequence[int]
) -> List[float]:
    """Exact order statistics (0-based ranks) of the expanded multiset."""
    cum = np.cumsum(counts)
    return [
        float(values[int(np.searchsorted(cum, rank, side="right"))])
        for rank in ranks
    ]


def percentile_from_counts(
    values: np.ndarray, counts: np.ndarray, q: float
) -> float:
    """``np.percentile(expanded, q)`` (linear) without expanding.

    ``values`` must be sorted ascending with positive integer
    ``counts``.  Replicates numpy's linear interpolation **including**
    its two-branch lerp (``a + (b-a)·g`` below the midpoint,
    ``b - (b-a)·(1-g)`` at or above it), so dwell-time quartiles from a
    histogram match ``np.percentile`` on the raw array bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("percentile of an empty histogram")
    virtual = (q / 100.0) * (n - 1)
    lo_rank = int(np.floor(virtual))
    g = virtual - lo_rank
    lo, hi = _order_stats_from_counts(
        values, counts, [lo_rank, min(lo_rank + 1, n - 1)]
    )
    if g == 0.0:
        return lo
    diff = hi - lo
    if g < 0.5:
        return lo + diff * g
    return hi - diff * (1.0 - g)


def median_from_counts(values: np.ndarray, counts: np.ndarray) -> float:
    """``np.median(expanded)`` without expanding.

    numpy's median averages the two middle order statistics as
    ``(a + b)/2`` (not the percentile lerp), so this is kept separate
    from :func:`percentile_from_counts`.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("median of an empty histogram")
    if n % 2:
        (mid,) = _order_stats_from_counts(values, counts, [n // 2])
        return mid
    a, b = _order_stats_from_counts(values, counts, [n // 2 - 1, n // 2])
    return (a + b) / 2.0


def dwell_histogram(durations: np.ndarray) -> Dict[int, int]:
    """``{duration_s: count}`` histogram of integer dwell times."""
    if len(durations) == 0:
        return {}
    values, counts = np.unique(np.asarray(durations, dtype=np.int64),
                               return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def sorted_items(hist: Dict[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """A histogram dict as (sorted values, counts) arrays."""
    if not hist:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    values = np.array(sorted(hist), dtype=np.int64)
    counts = np.array([hist[int(v)] for v in values], dtype=np.int64)
    return values, counts
