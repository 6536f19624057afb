"""The §5 queries as they were before they ran on columns: an oracle.

:class:`OracleView` decodes a view's columns into per-thread
``(time, ThreadState)`` lists and ``(time, victim, victor, core)``
preemption tuples, then rebuilds intervals one transition at a time
(the original ``TraceView.intervals``); the six query bodies below are
the original per-interval implementations, kept verbatim.
``test_columnar.py`` checks the columnar queries against them result
for result.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sched.states import ThreadState
from repro.sim.clock import Time, seconds, to_seconds
from repro.trace.analysis import PreemptionStats
from repro.trace.replay import (
    KSWAPD_THREAD,
    LMKD_THREAD,
    TraceAnalytics,
    is_video_thread,
)
from repro.trace.view import STATES, TraceView

ThreadFilter = Callable[[str], bool]


class OracleView:
    """A :class:`TraceView` decoded into native Python containers."""

    def __init__(self, view: TraceView) -> None:
        columns = view.columns
        names = columns["names"].tolist()
        offsets = columns["tr_offsets"].tolist()
        times = columns["tr_time"].tolist()
        codes = columns["tr_state"].tolist()
        self.start_time = view.start_time
        self.end_time = view.end_time
        self.transitions = {
            names[index]: [
                (times[i], STATES[codes[i]])
                for i in range(offsets[row], offsets[row + 1])
            ]
            for row, index in enumerate(columns["thread_idx"].tolist())
        }
        self.initial_states = {
            names[index]: STATES[initial]
            for index, initial in zip(
                columns["thread_idx"].tolist(),
                columns["thread_initial"].tolist(),
            )
        }
        self.preemptions = [
            (time, names[victim], names[victor], core)
            for time, victim, victor, core in zip(
                columns["pre_time"].tolist(),
                columns["pre_victim"].tolist(),
                columns["pre_victor"].tolist(),
                columns["pre_core"].tolist(),
            )
        ]
        self.migrations = {
            names[index]: count
            for index, count in zip(
                columns["mig_thread"].tolist(), columns["mig_count"].tolist()
            )
        }

    def thread_names(self) -> List[str]:
        return sorted(self.transitions.keys())

    def intervals(
        self, thread_name: str, until: Optional[Time] = None
    ) -> List[Tuple[Time, Time, ThreadState]]:
        """(start, end, state) intervals for one thread, tiling
        [start_time, until]."""
        if until is None:
            until = self.end_time
        events = self.transitions.get(thread_name, [])
        initial = self.initial_states.get(thread_name, ThreadState.SLEEPING)
        result: List[Tuple[Time, Time, ThreadState]] = []
        current_state = initial
        current_start = self.start_time
        for time, new_state in events:
            if time > until:
                break
            if time > current_start:
                result.append((current_start, time, current_state))
            current_state = new_state
            current_start = time
        if until > current_start:
            result.append((current_start, until, current_state))
        return result


def _match(names: Iterable[str], selector: ThreadFilter) -> List[str]:
    return [name for name in names if selector(name)]


def state_times(
    trace: OracleView,
    selector: ThreadFilter,
    until: Optional[Time] = None,
) -> Dict[ThreadState, float]:
    """Total seconds the selected threads spent in each state."""
    totals = {state: 0 for state in ThreadState}
    for name in _match(trace.thread_names(), selector):
        for start, end, state in trace.intervals(name, until):
            totals[state] += end - start
    return {state: to_seconds(ticks) for state, ticks in totals.items()}


def top_running_threads(
    trace: OracleView,
    until: Optional[Time] = None,
    limit: int = 20,
) -> List[Tuple[str, float]]:
    """Threads ranked by total RUNNING seconds, descending."""
    totals: List[Tuple[str, float]] = []
    for name in trace.thread_names():
        running = sum(
            end - start
            for start, end, state in trace.intervals(name, until)
            if state is ThreadState.RUNNING
        )
        totals.append((name, to_seconds(running)))
    totals.sort(key=lambda item: item[1], reverse=True)
    return totals[:limit]


def state_breakdown(
    trace: OracleView,
    thread_name: str,
    until: Optional[Time] = None,
) -> Dict[ThreadState, float]:
    """Fraction of one thread's lifetime spent in each state."""
    intervals = trace.intervals(thread_name, until)
    total = sum(end - start for start, end, _ in intervals)
    if total == 0:
        return {state: 0.0 for state in ThreadState}
    result = {state: 0.0 for state in ThreadState}
    for start, end, state in intervals:
        result[state] += (end - start) / total
    return result


def _running_duration_from(
    trace: OracleView, thread_name: str, start: Time, until: Time
) -> Time:
    """Contiguous RUNNING time of ``thread_name`` starting at ``start``."""
    for ivl_start, ivl_end, state in trace.intervals(thread_name, until):
        if state is ThreadState.RUNNING and ivl_start <= start < ivl_end:
            return ivl_end - start
    return 0


def _wait_until_running(
    trace: OracleView, thread_name: str, start: Time, until: Time
) -> Time:
    """Time from ``start`` until ``thread_name`` next enters RUNNING."""
    for ivl_start, ivl_end, state in trace.intervals(thread_name, until):
        if state is ThreadState.RUNNING and ivl_start >= start:
            return ivl_start - start
    return until - start


def preemption_stats(
    trace: OracleView,
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
    events_by_victor: Dict[str, List[Tuple[Time, str]]] = defaultdict(list)
    for time, victim, victor, _core in trace.preemptions:
        if time <= until and victim_selector(victim):
            events_by_victor[victor].append((time, victim))

    results: List[PreemptionStats] = []
    for victor, events in events_by_victor.items():
        runs = [
            _running_duration_from(trace, victor, time, until)
            for time, _victim in events
        ]
        waits = [
            _wait_until_running(trace, victim, time, until)
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
    trace: OracleView,
    thread_name: str,
    window: Time = seconds(1.0),
    until: Optional[Time] = None,
) -> List[Tuple[float, float]]:
    """(window start seconds, utilization in [0,1]) per window."""
    if until is None:
        until = trace.end_time
    running = [
        (start, end)
        for start, end, state in trace.intervals(thread_name, until)
        if state is ThreadState.RUNNING
    ]
    series: List[Tuple[float, float]] = []
    window_start = trace.start_time
    while window_start < until:
        window_end = min(window_start + window, until)
        busy = 0
        for start, end in running:
            overlap = min(end, window_end) - max(start, window_start)
            if overlap > 0:
                busy += overlap
        span = window_end - window_start
        series.append((to_seconds(window_start), busy / span if span else 0.0))
        window_start = window_end
    return series


def migration_counts(trace: OracleView) -> Dict[str, int]:
    """Core migrations per thread (§7: kswapd switches cores often)."""
    return dict(trace.migrations)


def oracle_analytics(
    view: TraceView, until: Optional[Time] = None
) -> TraceAnalytics:
    """``analyze_view`` over the oracle queries."""
    oracle = OracleView(view)
    return TraceAnalytics(
        video_state_times={
            state.value: value
            for state, value in state_times(
                oracle, is_video_thread, until
            ).items()
        },
        top_running=top_running_threads(oracle, until, limit=10),
        kswapd_breakdown={
            state.value: value
            for state, value in state_breakdown(
                oracle, KSWAPD_THREAD, until
            ).items()
        },
        preemptions=preemption_stats(oracle, is_video_thread, until),
        lmkd_utilization=cpu_utilization_series(
            oracle, LMKD_THREAD, until=until
        ),
        migrations=migration_counts(oracle),
    )
