"""The §3 cohort-summary kernels as they were before the vectorized
passes: an oracle.

``from_counts`` is the scalar t-digest compression loop over numpy
scalars, ``median_utilization`` the per-device ``np.median`` of the
cohort summary, and ``runs_flat`` the run splitter built on
``np.unique``, each kept verbatim.  ``test_summary_kernels.py`` checks
the current kernels against them bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.study.sketches import TDigest


def from_counts(
    values: np.ndarray, counts: np.ndarray, compression: int = 100
) -> TDigest:
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if values.size == 0:
        return TDigest.empty(compression)
    total = float(counts.sum())
    out_mean: List[float] = []
    out_weight: List[float] = []
    cur_sum = float(values[0]) * float(counts[0])
    cur_w = float(counts[0])
    done_w = 0.0
    for value, count in zip(values[1:], counts[1:]):
        candidate_w = cur_w + float(count)
        q = (done_w + candidate_w / 2.0) / total
        limit = 4.0 * total * q * (1.0 - q) / float(compression)
        if candidate_w <= limit:
            cur_sum += float(value) * float(count)
            cur_w = candidate_w
        else:
            out_mean.append(cur_sum / cur_w)
            out_weight.append(cur_w)
            done_w += cur_w
            cur_sum = float(value) * float(count)
            cur_w = float(count)
    out_mean.append(cur_sum / cur_w)
    out_weight.append(cur_w)
    means = np.asarray(out_mean)
    weights = np.asarray(out_weight)
    order = np.lexsort((weights, means))
    return TDigest(means[order], weights[order], compression)


def median_utilization(avail: np.ndarray, total_mb: int) -> np.float32:
    """``np.median`` of one device's float32 utilization (NaN, with a
    warning, for no samples)."""
    util = 1.0 - avail / total_mb
    return np.median(util)


def runs_flat(
    values: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(starts, lengths, values, devs) of the equal-value runs."""
    total = int(offsets[-1])
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype), empty
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.unique(np.concatenate((offsets[:-1], change)))
    # Zero-length devices contribute duplicate/terminal offsets.
    starts = starts[starts < total]
    devs = np.searchsorted(offsets, starts, side="right") - 1
    ends = np.concatenate((starts[1:], [total]))
    return starts, ends - starts, values[starts], devs
