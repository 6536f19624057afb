"""Streaming mergeable sketches for the fleet population engine.

The million-device pipeline cannot hold per-device arrays, so each
cohort reduces its per-second samples into small mergeable summaries:

* :class:`TDigest` — a t-digest over a value distribution (available
  memory per pressure state, per-device median utilization).  Centroids
  are built **once per cohort** with a deterministic compression pass;
  cross-cohort :meth:`TDigest.merge` is a *canonical multiset union* of
  centroid lists (no re-compression), which makes merging exactly
  associative and commutative — the property the shard-invariance
  guarantee rests on: any grouping of the operands, including all of
  them at once, gives the same digest bit for bit.  Merges are n-ary,
  so a fleet merges all its cohorts with one sort per digest, linear
  in the number of cohorts.  Memory is O(cohorts · compression).
* exact counter maps (plain ints / dicts) merged by addition
  (:func:`merge_count_dicts`, also n-ary), used for
  signal frequencies, time-in-state, and transition statistics; dwell
  times are kept as ``{duration: count}`` histograms so quartiles can
  be computed *exactly* at finalize time (see
  :func:`percentile_from_counts`, a bit-exact replica of
  ``np.percentile(..)``'s linear interpolation).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "TDigest",
    "merge_count_dicts",
    "percentile_from_counts",
    "median_from_counts",
]


def _canonical_order(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The stable sort by (mean, weight) that every digest is kept in."""
    return np.lexsort((weights, means))


class TDigest:
    """A mergeable quantile sketch (Dunning's t-digest, k0-style).

    ``means``/``weights`` are float64 arrays sorted by (mean, weight).
    Compression happens only in :meth:`from_values` / :meth:`from_counts`
    (per cohort); :meth:`merge` concatenates and canonically re-sorts,
    so ``merge`` is exactly associative and commutative and a merged
    digest is bit-identical however the cohorts were grouped into
    shards.
    """

    __slots__ = ("means", "weights", "compression")

    def __init__(
        self,
        means: np.ndarray,
        weights: np.ndarray,
        compression: int = 100,
    ) -> None:
        self.means = np.asarray(means, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.compression = int(compression)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, compression: int = 100) -> "TDigest":
        return cls(np.empty(0), np.empty(0), compression)

    @classmethod
    def from_values(
        cls, values: Sequence[float], compression: int = 100
    ) -> "TDigest":
        """Build a digest from raw values (sorted internally)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return cls.empty(compression)
        arr = np.sort(arr, kind="stable")
        return cls.from_counts(arr, np.ones(arr.size), compression)

    @classmethod
    def from_counts(
        cls,
        values: np.ndarray,
        counts: np.ndarray,
        compression: int = 100,
    ) -> "TDigest":
        """Build from ``(sorted values, weights)`` pairs.

        One deterministic left-to-right pass merges neighbours while the
        merged centroid's weight stays under the k0 size limit
        ``4·W·q·(1-q)/compression`` at its midpoint quantile ``q`` —
        centroids stay small near the tails, so tail quantiles stay
        sharp.

        The pass walks Python floats (``tolist``), whose arithmetic is
        the same IEEE float64 as numpy scalars' at a fraction of the
        per-value cost.  A vector test per centroid was measured slower:
        most centroids hold a few values, and even the long ones cost
        more in numpy calls than a scalar step per value.
        """
        values = np.asarray(values, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.float64)
        if values.size == 0:
            return cls.empty(compression)
        if np.any(np.diff(values) < 0):
            raise ValueError("from_counts requires sorted values")
        total = float(counts.sum())
        scale = 4.0 * total
        comp = float(compression)
        value_list = values.tolist()
        count_list = counts.tolist()
        out_mean: List[float] = []
        out_weight: List[float] = []
        cur_sum = value_list[0] * count_list[0]
        cur_w = count_list[0]
        done_w = 0.0
        for value, count in zip(value_list[1:], count_list[1:]):
            candidate_w = cur_w + count
            q = (done_w + candidate_w / 2.0) / total
            if candidate_w <= scale * q * (1.0 - q) / comp:
                cur_sum += value * count
                cur_w = candidate_w
            else:
                out_mean.append(cur_sum / cur_w)
                out_weight.append(cur_w)
                done_w += cur_w
                cur_sum = value * count
                cur_w = count
        out_mean.append(cur_sum / cur_w)
        out_weight.append(cur_w)
        means = np.asarray(out_mean)
        weights = np.asarray(out_weight)
        order = _canonical_order(means, weights)
        return cls(means[order], weights[order], compression)

    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        return float(self.weights.sum()) if self.weights.size else 0.0

    @property
    def n_centroids(self) -> int:
        return int(self.means.size)

    def merge(self, *others: "TDigest") -> "TDigest":
        """Canonical multiset union of this and ``others``' centroid lists.

        No re-compression: the result is the stably sorted
        concatenation of the non-empty operands in operand order, with
        ``self``'s compression.  So ``a.merge(b) == b.merge(a)`` and any
        grouping — ``(a.merge(b)).merge(c)``, ``a.merge(b.merge(c))``,
        or all at once, ``a.merge(b, c)`` — gives the same digest *bit
        for bit*, whatever the shard grouping of cohorts.  Merging
        ``k`` digests sorts once, not ``k - 1`` times.
        """
        parts = [d for d in (self, *others) if d.n_centroids]
        if len(parts) <= 1:
            only = parts[0] if parts else self
            return TDigest(only.means, only.weights, self.compression)
        means = np.concatenate([d.means for d in parts])
        weights = np.concatenate([d.weights for d in parts])
        order = _canonical_order(means, weights)
        return TDigest(means[order], weights[order], self.compression)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1).

        Standard t-digest interpolation: centroid *i* sits at cumulative
        weight ``W_{<i} + w_i/2``; the result interpolates linearly
        between neighbouring centroid means and clamps to the extreme
        means at the tails.
        """
        if self.n_centroids == 0:
            raise ValueError("quantile of an empty digest")
        if self.n_centroids == 1:
            return float(self.means[0])
        q = min(1.0, max(0.0, float(q)))
        total = self.total_weight
        target = q * total
        cum = np.cumsum(self.weights)
        centers = cum - self.weights / 2.0
        if target <= centers[0]:
            return float(self.means[0])
        if target >= centers[-1]:
            return float(self.means[-1])
        hi = int(np.searchsorted(centers, target, side="right"))
        lo = hi - 1
        span = centers[hi] - centers[lo]
        frac = 0.0 if span <= 0 else (target - centers[lo]) / span
        return float(self.means[lo] + frac * (self.means[hi] - self.means[lo]))

    def cdf(self, x: float) -> float:
        """Estimated fraction of weight at values <= ``x``."""
        if self.n_centroids == 0:
            raise ValueError("cdf of an empty digest")
        if x < self.means[0]:
            return 0.0
        if x >= self.means[-1]:
            return 1.0
        cum = np.cumsum(self.weights)
        centers = cum - self.weights / 2.0
        hi = int(np.searchsorted(self.means, x, side="right"))
        hi = min(hi, self.n_centroids - 1)
        lo = max(0, hi - 1)
        if self.means[hi] == self.means[lo]:
            return float(centers[hi] / self.total_weight)
        frac = (x - self.means[lo]) / (self.means[hi] - self.means[lo])
        est = centers[lo] + frac * (centers[hi] - centers[lo])
        return float(min(1.0, max(0.0, est / self.total_weight)))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TDigest):
            return NotImplemented
        return (
            np.array_equal(self.means, other.means)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # pragma: no cover - digests not hashed
        return hash((self.means.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        return (
            f"TDigest(n={self.n_centroids}, weight={self.total_weight:.0f}, "
            f"compression={self.compression})"
        )


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
