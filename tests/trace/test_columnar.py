"""The columnar §5 queries against the per-interval oracle.

Every query, and ``analyze_view`` as a whole, must give exactly the
oracle's answer (``interval_oracle.py``: the per-interval
implementation the queries had before they ran on numpy columns) on a
live recorder and on its save/load round trip, for any horizon.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import SessionSpec
from repro.sched import SchedClass, Scheduler, ThreadState, make_cores
from repro.sim import Simulator, millis
from repro.trace import analysis
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import analyze_view, is_video_thread, record_session_trace
from repro.trace.store import load_trace, save_trace
from repro.trace.view import STATE_INDEX, TraceView

from . import interval_oracle as oracle

THREADS = (
    ("MediaCodec-0", SchedClass.FOREGROUND),
    ("SurfaceFlinger", SchedClass.FOREGROUND),
    ("mmcqd", SchedClass.IO),
    ("kswapd0", SchedClass.FOREGROUND),
    ("lmkd", SchedClass.IO),
    ("bg-app", SchedClass.BACKGROUND),
)


class HandView(TraceView):
    """A trace written out by hand, for instants a scheduler rarely hits.

    ``transitions`` maps each thread (initially SLEEPING) to its
    ``(time, ThreadState)`` list; ``preemptions`` are ``(time, victim,
    victor, core)`` rows.  Both are encoded into the store's columns.
    """

    def __init__(self, start, end, transitions, preemptions=()):
        self.start_time = start
        self._end = end
        self.counters = {}
        names = sorted(
            {*transitions, *(n for _, a, b, _ in preemptions for n in (a, b))}
        )
        table = {name: index for index, name in enumerate(names)}
        threads = sorted(transitions)
        runs = [transitions[name] for name in threads]
        self._columns = {
            "names": np.array(names, dtype=np.str_),
            "thread_idx": np.array([table[t] for t in threads], dtype=np.int32),
            "thread_initial": np.full(
                len(threads), STATE_INDEX[ThreadState.SLEEPING], dtype=np.int8
            ),
            "tr_offsets": np.cumsum([0] + [len(run) for run in runs]),
            "tr_time": np.array(
                [t for run in runs for t, _ in run], dtype=np.int64
            ),
            "tr_state": np.array(
                [STATE_INDEX[s] for run in runs for _, s in run], dtype=np.int8
            ),
            "mig_thread": np.array([], dtype=np.int32),
            "mig_count": np.array([], dtype=np.int64),
            "pre_time": np.array([e[0] for e in preemptions], dtype=np.int64),
            "pre_victim": np.array(
                [table[e[1]] for e in preemptions], dtype=np.int32
            ),
            "pre_victor": np.array(
                [table[e[2]] for e in preemptions], dtype=np.int32
            ),
            "pre_core": np.array([e[3] for e in preemptions], dtype=np.int32),
        }

    @property
    def end_time(self):
        return self._end

    @property
    def columns(self):
        return self._columns


def record(seed, cores, lead_ms, posts, span_ms, classes=None):
    """A recorder attached ``lead_ms`` into a run (so start_time > 0),
    detached ``span_ms`` later; ``posts`` are (thread, at_ms, work_ms)."""
    sim = Simulator(seed=seed)
    sched = Scheduler(sim, make_cores([1.0] * cores))
    threads = [
        sched.spawn(name, cls if classes is None else classes)
        for name, cls in THREADS
    ]
    sim.run(until=millis(lead_ms))
    recorder = TraceRecorder(sim)
    for index, at_ms, work_ms in posts:
        sim.schedule(millis(at_ms), threads[index].post, millis(work_ms) * 1.0)
    sim.run(until=millis(lead_ms + span_ms))
    recorder.detach()
    return recorder


def transition_times(view):
    return sorted(set(view.columns["tr_time"].tolist()))


def has_tie(view):
    return any(
        bool((np.diff(view.thread_columns(name).times) == 0).any())
        for name in view.thread_names()
    )


def assert_queries_match(view, until):
    """Each columnar query equals its oracle on ``view`` at ``until``."""
    reference = oracle.OracleView(view)
    everyone = lambda name: True  # noqa: E731
    names = view.thread_names() + ["ghost"]
    for name in names:
        assert view.intervals(name, until) == reference.intervals(name, until)
        assert analysis.state_breakdown(view, name, until) == (
            oracle.state_breakdown(reference, name, until)
        )
        for window in (millis(1), millis(7), millis(1000)):
            assert analysis.cpu_utilization_series(
                view, name, window, until
            ) == oracle.cpu_utilization_series(reference, name, window, until)
    for selector in (everyone, is_video_thread):
        assert analysis.state_times(view, selector, until) == (
            oracle.state_times(reference, selector, until)
        )
        assert analysis.preemption_stats(view, selector, until) == (
            oracle.preemption_stats(reference, selector, until)
        )
    assert analysis.top_running_threads(view, until) == (
        oracle.top_running_threads(reference, until)
    )
    assert analysis.migration_counts(view) == oracle.migration_counts(reference)
    live = analyze_view(view, until)
    assert live.canonical() == oracle.oracle_analytics(view, until).canonical()


def horizons(view, pick):
    """None, before start_time, at a transition instant, past the end."""
    times = transition_times(view)
    chosen = [None, view.start_time - 1, view.start_time, view.end_time + 12345]
    if times:
        chosen.append(times[pick % len(times)])
    return chosen


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cores=st.integers(min_value=1, max_value=2),
    lead_ms=st.integers(min_value=0, max_value=5),
    posts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(THREADS) - 1),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=12),
        ),
        min_size=3,
        max_size=16,
    ),
    span_ms=st.integers(min_value=1, max_value=40),
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_columnar_queries_equal_oracle(
    tmp_path_factory, seed, cores, lead_ms, posts, span_ms, pick
):
    recorder = record(seed, cores, lead_ms, posts, span_ms)
    path = tmp_path_factory.mktemp("traces") / "t.trace.npz"
    replay = load_trace(save_trace(recorder, path))
    for view in (recorder, replay):
        for until in horizons(view, pick):
            assert_queries_match(view, until)


def test_ties_and_preemptions_equal_oracle(tmp_path):
    recorder = record(
        3, 1, 2,
        [(0, 0, 20), (2, 5, 3), (1, 6, 4), (4, 9, 2), (0, 25, 5), (5, 1, 9)],
        span_ms=40,
    )
    assert has_tie(recorder), "fixture lost its same-instant transitions"
    assert recorder.columns["pre_time"].size, "fixture lost its preemptions"
    replay = load_trace(save_trace(recorder, tmp_path / "t.trace.npz"))
    for view in (recorder, replay):
        for until in horizons(view, 0) + transition_times(view):
            assert_queries_match(view, until)


def test_zero_preemptions_equal_oracle(tmp_path):
    recorder = record(
        5, 2, 0, [(0, 0, 4), (1, 2, 6), (3, 3, 2)], span_ms=15,
        classes=SchedClass.FOREGROUND,
    )
    assert recorder.columns["pre_time"].size == 0
    replay = load_trace(save_trace(recorder, tmp_path / "t.trace.npz"))
    for view in (recorder, replay):
        assert analysis.preemption_stats(view, lambda name: True) == []
        for until in horizons(view, 1):
            assert_queries_match(view, until)


def test_same_instant_resume_and_zero_length_run_equal_oracle():
    R, P, S = (ThreadState.RUNNING, ThreadState.RUNNABLE_PREEMPTED,
               ThreadState.SLEEPING)
    view = HandView(5, 60, {
        # Preempted at 20 and running again at the same instant.
        "MediaCodec-0": [(10, R), (20, P), (20, R), (30, P), (45, R), (50, S)],
        # A zero-length RUNNING at 20, then a real run 30..44.
        "mmcqd": [(20, R), (20, S), (30, R), (44, S)],
    }, [(20, "MediaCodec-0", "mmcqd", 0), (30, "MediaCodec-0", "mmcqd", 0)])
    (stats,) = analysis.preemption_stats(view, is_video_thread)
    assert (stats.count, stats.total_victor_run_s, stats.total_victim_wait_s) == (
        2, 14e-6, 15e-6
    )
    for until in horizons(view, 0) + transition_times(view):
        assert_queries_match(view, until)


def test_breakdown_adds_many_shares_in_order():
    # Enough intervals per state that a pairwise sum would round
    # differently from the interval-by-interval one.
    rng = random.Random(7)
    time, events = 0, []
    for index in range(400):
        time += rng.randint(1, 997)
        events.append((time, (ThreadState.RUNNING, ThreadState.RUNNABLE)[index % 2]))
    view = HandView(0, time + 50, {"kswapd0": events})
    reference = oracle.OracleView(view)
    for until in (None, events[200][0], events[123][0] + 1):
        assert analysis.state_breakdown(view, "kswapd0", until) == (
            oracle.state_breakdown(reference, "kswapd0", until)
        )


def test_thread_without_transitions_is_all_sleeping(tmp_path):
    # A session under no memory pressure never wakes kswapd, so the
    # Figure 13 query asks about a thread the trace has never seen.
    spec = SessionSpec("nexus6p", "720p", 30, "normal", None, 10.0, 11)
    _result, recorder = record_session_trace(spec)
    assert "kswapd0" not in recorder.thread_names()
    replay = load_trace(save_trace(recorder, tmp_path / "t.trace.npz"))
    analyze_view(replay)
    assert not hasattr(replay, "transitions"), "replay decoded its columns"
    expected = {state: 0.0 for state in ThreadState}
    expected[ThreadState.SLEEPING] = 1.0
    for view in (recorder, replay):
        assert analysis.state_breakdown(view, "kswapd0") == expected
        assert analyze_view(view).digest() == (
            oracle.oracle_analytics(view).digest()
        )


@pytest.mark.parametrize("window", [0, -1, -millis(5)])
def test_cpu_utilization_rejects_non_positive_window(window):
    recorder = record(1, 1, 0, [(4, 0, 3)], span_ms=10)
    with pytest.raises(ValueError, match="window"):
        analysis.cpu_utilization_series(recorder, "lmkd", window=window)
