"""The trace read interface shared by live recording and replay.

:mod:`repro.trace.analysis` answers every §5 question from four event
families (state transitions, preemptions/rotations, migrations, counter
tracks) plus the trace's time span.  :class:`TraceView` is that contract
made concrete: the live :class:`~repro.trace.recorder.TraceRecorder`
fills it while the simulation runs, and
:class:`~repro.trace.store.ReplayTrace` fills it from a columnar file on
disk — so an analysis query cannot tell (and must not care) whether the
events it walks were recorded five microseconds or five weeks ago.

The queries read state transitions through one columnar accessor,
:meth:`TraceView.thread_columns`: a thread's transition times (int64)
and state codes (int8) plus its initial state code.  A replayed trace
serves slices of the arrays it loaded; the recorder builds the same
arrays from the lists it keeps.  Both views hand the queries identical
integers, which is what makes their answers bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..sched.states import ThreadState
from ..sim.clock import Time

#: A state transition: (time, new_state).
Transition = Tuple[Time, ThreadState]
#: A displacement: (time, victim name, victor name, core index).
Preemption = Tuple[Time, str, str, int]

#: Canonical state encoding: index into the enum's declaration order.
#: Frozen by the trace schema — reordering ThreadState is a schema
#: change.
STATES: Tuple[ThreadState, ...] = tuple(ThreadState)
STATE_INDEX: Dict[ThreadState, int] = {
    state: index for index, state in enumerate(STATES)
}


class ThreadColumns(NamedTuple):
    """One thread's state transitions as columns."""

    #: Transition times, int64 ticks, non-decreasing.
    times: np.ndarray
    #: New state per transition, int8 codes into :data:`STATES`.
    states: np.ndarray
    #: Code of the state the thread was in before its first transition.
    initial: int


class Tiling(NamedTuple):
    """A thread's non-empty (start, end, state) intervals as columns."""

    starts: np.ndarray
    ends: np.ndarray
    #: int8 codes into :data:`STATES`.
    states: np.ndarray


class TraceView:
    """Recorded scheduling events and counter tracks, queryable.

    Subclasses populate the data attributes and define the trace's
    :attr:`end_time`; the interval reconstruction lives here so live
    and replayed traces share one implementation (and therefore
    produce bit-identical analysis results on identical event data).
    """

    #: First instant covered by the trace.
    start_time: Time
    #: Per-thread state transitions, in occurrence order.
    transitions: Dict[str, List[Transition]]
    #: True mid-slice preemptions by a higher scheduling class.
    preemptions: List[Preemption]
    #: Involuntary quantum rotations within the same class.
    rotations: List[Preemption]
    #: Core migrations per thread.
    migrations: Dict[str, int]
    #: Named counter tracks: (sample time, value) per sample.
    counters: Dict[str, List[Tuple[Time, float]]]
    #: The state each thread was in when first observed.
    initial_states: Dict[str, ThreadState]

    @property
    def end_time(self) -> Time:
        """Last instant covered by the trace (analysis' default horizon)."""
        raise NotImplementedError

    def thread_names(self) -> List[str]:
        """Threads with at least one transition, sorted."""
        return sorted(self.transitions.keys())

    def thread_columns(self, thread_name: str) -> ThreadColumns:
        """``thread_name``'s transitions as int64 times and int8 states.

        A thread with no transitions has empty columns and an initial
        SLEEPING state.  This default builds the columns from
        :attr:`transitions`; a replayed trace serves its stored arrays.
        """
        events = self.transitions.get(thread_name, [])
        initial = self.initial_states.get(thread_name, ThreadState.SLEEPING)
        times = np.fromiter(
            (time for time, _ in events), dtype=np.int64, count=len(events)
        )
        states = np.fromiter(
            (STATE_INDEX[state] for _, state in events),
            dtype=np.int8,
            count=len(events),
        )
        return ThreadColumns(times, states, STATE_INDEX[initial])

    # ------------------------------------------------------------------
    # Interval reconstruction
    # ------------------------------------------------------------------
    def tiling(self, thread_name: str, until: Optional[Time] = None) -> Tiling:
        """The non-empty intervals tiling [start_time, until], as columns.

        Transitions after ``until`` are cut with one ``searchsorted``;
        the boundaries are ``start_time``, the remaining transition
        times, and ``until``, and an interval whose end does not exceed
        its start (several transitions at one instant) is dropped.
        """
        if until is None:
            until = self.end_time
        times, states, initial = self.thread_columns(thread_name)
        cut = int(np.searchsorted(times, until, side="right"))
        bounds = np.empty(cut + 2, dtype=np.int64)
        bounds[0] = self.start_time
        bounds[1:-1] = times[:cut]
        bounds[-1] = until
        codes = np.empty(cut + 1, dtype=np.int8)
        codes[0] = initial
        codes[1:] = states[:cut]
        starts, ends = bounds[:-1], bounds[1:]
        keep = ends > starts
        return Tiling(starts[keep], ends[keep], codes[keep])

    def intervals(
        self, thread_name: str, until: Optional[Time] = None
    ) -> List[Tuple[Time, Time, ThreadState]]:
        """(start, end, state) intervals for one thread, tiling
        [start_time, until]."""
        starts, ends, codes = self.tiling(thread_name, until)
        return [
            (start, end, STATES[code])
            for start, end, code in zip(
                starts.tolist(), ends.tolist(), codes.tolist()
            )
        ]
