"""Trace analysis queries reproducing the paper's §5 tables and figures.

* :func:`state_times` — total time a set of threads spent per state
  (Table 4: Running / Runnable / Runnable (Preempted) of video threads).
* :func:`top_running_threads` — threads ranked by total running time
  (§5 "top running threads": kswapd 2.3 s → 22 s).
* :func:`state_breakdown` — per-thread percentage split across states
  (Figure 13: kswapd sleeping 75% → 31%, running 6% → 56%).
* :func:`preemption_stats` — per-victor preemption statistics over a
  victim set (Table 5: mmcqd preemption count, run-after-preemption,
  victim wait-to-run-again).
* :func:`cpu_utilization_series` — windowed per-thread CPU utilization
  (Figure 14: the lmkd spike at the crash).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..sched.states import ThreadState
from ..sim.clock import Time, seconds, to_seconds
from .view import STATE_INDEX, STATES, Tiling, TraceView

ThreadFilter = Callable[[str], bool]

_RUNNING = STATE_INDEX[ThreadState.RUNNING]


def _match(names: Iterable[str], selector: ThreadFilter) -> List[str]:
    return [name for name in names if selector(name)]


def state_times(
    trace: TraceView,
    selector: ThreadFilter,
    until: Optional[Time] = None,
) -> Dict[ThreadState, float]:
    """Total seconds the selected threads spent in each state."""
    totals = np.zeros(len(STATES), dtype=np.int64)
    for name in _match(trace.thread_names(), selector):
        starts, ends, codes = trace.tiling(name, until)
        np.add.at(totals, codes, ends - starts)
    return {
        state: to_seconds(ticks)
        for state, ticks in zip(STATES, totals.tolist())
    }


def top_running_threads(
    trace: TraceView,
    until: Optional[Time] = None,
    limit: int = 20,
) -> List[Tuple[str, float]]:
    """Threads ranked by total RUNNING seconds, descending."""
    totals: List[Tuple[str, float]] = []
    for name in trace.thread_names():
        starts, ends, codes = trace.tiling(name, until)
        running = codes == _RUNNING
        ticks = int((ends[running] - starts[running]).sum())
        totals.append((name, to_seconds(ticks)))
    totals.sort(key=lambda item: item[1], reverse=True)
    return totals[:limit]


def state_breakdown(
    trace: TraceView,
    thread_name: str,
    until: Optional[Time] = None,
) -> Dict[ThreadState, float]:
    """Fraction of one thread's lifetime spent in each state.

    Each state's fraction is the left-to-right float sum of its
    intervals' ``(end - start) / total`` shares: ``np.cumsum`` adds in
    order, where ``np.sum`` would add pairwise and round differently.
    """
    starts, ends, codes = trace.tiling(thread_name, until)
    durations = ends - starts
    total = int(durations.sum())
    result = {state: 0.0 for state in ThreadState}
    if total == 0:
        return result
    shares = durations / total
    present = np.bincount(codes, minlength=len(STATES)).tolist()
    for code, count in enumerate(present):
        if count:
            result[STATES[code]] = float(np.cumsum(shares[codes == code])[-1])
    return result


@dataclass
class PreemptionStats:
    """Statistics for one preempting thread over a victim set."""

    victor: str
    count: int
    mean_victor_run_s: float
    mean_victim_wait_s: float
    total_victor_run_s: float
    total_victim_wait_s: float


def _running_duration_from(tiling: Tiling, start: Time) -> Time:
    """Contiguous RUNNING time of a thread starting at ``start``."""
    starts, ends, codes = tiling
    index = int(np.searchsorted(starts, start, side="right")) - 1
    if index >= 0 and start < ends[index] and codes[index] == _RUNNING:
        return int(ends[index]) - start
    return 0


def _wait_until_running(tiling: Tiling, start: Time, until: Time) -> Time:
    """Time from ``start`` until a thread next enters RUNNING."""
    running_starts = tiling.starts[tiling.states == _RUNNING]
    index = int(np.searchsorted(running_starts, start, side="left"))
    if index < running_starts.size:
        return int(running_starts[index]) - start
    return until - start


def preemption_stats(
    trace: TraceView,
    victim_selector: ThreadFilter,
    until: Optional[Time] = None,
) -> List[PreemptionStats]:
    """Per-victor preemption statistics over the selected victims.

    For every preemption of a selected victim: who preempted it, how
    long the victor then ran contiguously, and how long the victim
    waited to get the CPU back — the three statistics of Table 5.
    """
    if until is None:
        until = trace.end_time
    columns = trace.columns
    names = columns["names"].tolist()
    events_by_victor: Dict[str, List[Tuple[Time, str]]] = defaultdict(list)
    for time, victim, victor in zip(
        columns["pre_time"].tolist(),
        columns["pre_victim"].tolist(),
        columns["pre_victor"].tolist(),
    ):
        if time <= until and victim_selector(names[victim]):
            events_by_victor[names[victor]].append((time, names[victim]))

    tilings: Dict[str, Tiling] = {}

    def tiling(name: str) -> Tiling:
        if name not in tilings:
            tilings[name] = trace.tiling(name, until)
        return tilings[name]

    results: List[PreemptionStats] = []
    for victor, events in events_by_victor.items():
        runs = [
            _running_duration_from(tiling(victor), time)
            for time, _victim in events
        ]
        waits = [
            _wait_until_running(tiling(victim), time, until)
            for time, victim in events
        ]
        count = len(events)
        results.append(
            PreemptionStats(
                victor=victor,
                count=count,
                mean_victor_run_s=to_seconds(sum(runs)) / count,
                mean_victim_wait_s=to_seconds(sum(waits)) / count,
                total_victor_run_s=to_seconds(sum(runs)),
                total_victim_wait_s=to_seconds(sum(waits)),
            )
        )
    results.sort(key=lambda stats: stats.count, reverse=True)
    return results


def cpu_utilization_series(
    trace: TraceView,
    thread_name: str,
    window: Time = seconds(1.0),
    until: Optional[Time] = None,
) -> List[Tuple[float, float]]:
    """(window start seconds, utilization in [0,1]) per window.

    Raises :class:`ValueError` for a ``window`` that is not positive.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if until is None:
        until = trace.end_time
    starts, ends, codes = trace.tiling(thread_name, until)
    running = codes == _RUNNING
    starts, ends = starts[running], ends[running]
    window_starts = np.arange(trace.start_time, until, window, dtype=np.int64)
    if window_starts.size == 0:
        return []
    edges = np.append(window_starts, np.int64(until))
    # Running ticks up to each edge: whole intervals ended by it, plus
    # the elapsed part of the interval it falls in.
    done = np.searchsorted(ends, edges, side="right")
    elapsed = np.concatenate(([0], np.cumsum(ends - starts)))[done]
    if starts.size:
        current = np.minimum(done, starts.size - 1)
        partial = np.where(
            done < starts.size, np.maximum(edges - starts[current], 0), 0
        )
        elapsed = elapsed + partial
    utilization = np.diff(elapsed) / np.diff(edges)
    return [
        (to_seconds(start), util)
        for start, util in zip(window_starts.tolist(), utilization.tolist())
    ]


def migration_counts(trace: TraceView) -> Dict[str, int]:
    """Core migrations per thread (§7: kswapd switches cores often)."""
    return dict(trace.migrations)
