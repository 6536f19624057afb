"""The §3 cohort-summary kernels as they were before the vectorized
passes: an oracle.

``median_utilization`` is the per-device ``np.median`` of the cohort
summary and ``runs_flat`` the run splitter built on ``np.unique``,
each kept verbatim.  ``test_summary_kernels.py`` checks the current
kernels against them bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
