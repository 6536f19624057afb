"""The trace read interface shared by live recording and replay.

A trace has one in-memory form from record to replay: the trace
store's columns (``names`` and :data:`EVENT_COLUMNS`) plus its time
span.  :class:`TraceView` answers every §5 question from those columns.
The live :class:`~repro.trace.recorder.TraceRecorder` builds them from
the int ticks and state codes it appends while the simulation runs, and
:class:`~repro.trace.store.ReplayTrace` reads them from a file on disk —
so an analysis query cannot tell (and must not care) whether the events
it walks were recorded five microseconds or five weeks ago.

The queries read state transitions through one accessor,
:meth:`TraceView.thread_columns`: slices of a thread's transition times
(int64) and state codes (int8) plus its initial state code.  Both views
hand the queries identical integers, which is what makes their answers
bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..sched.states import ThreadState
from ..sim.clock import Time

#: Canonical state encoding: index into the enum's declaration order.
#: Frozen by the trace schema — reordering ThreadState is a schema
#: change.
STATES: Tuple[ThreadState, ...] = tuple(ThreadState)
STATE_INDEX: Dict[ThreadState, int] = {
    state: index for index, state in enumerate(STATES)
}

#: The numeric event columns of a trace and their dtypes (see
#: :mod:`repro.trace.store`): per-thread transition runs, migration
#: totals, and (time, victim, victor, core) rows for preemptions
#: (``pre_*``) and quantum rotations (``rot_*``).  Thread and actor
#: columns index the sorted ``names`` string table, the one other column.
EVENT_COLUMNS: Dict[str, str] = {
    "thread_idx": "int32", "thread_initial": "int8",
    "tr_offsets": "int64", "tr_time": "int64", "tr_state": "int8",
    "mig_thread": "int32", "mig_count": "int64",
    **{f"{prefix}_{field}": "int64" if field == "time" else "int32"
       for prefix in ("pre", "rot")
       for field in ("time", "victim", "victor", "core")},
}

#: The run of a thread with no transitions: empty, initially SLEEPING.
_NO_RUN = (0, 0, STATE_INDEX[ThreadState.SLEEPING])


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
    """A recorded trace held as the store's column groups, queryable.

    Subclasses supply :attr:`columns` and :attr:`end_time`; everything
    read from the columns lives here, so live and replayed traces share
    one implementation (and therefore produce bit-identical analysis
    results on identical event data).
    """

    #: First instant covered by the trace.
    start_time: Time

    #: The columns last indexed by :meth:`_thread_runs`, and that index.
    _index: Optional[
        Tuple[Dict[str, np.ndarray], Dict[str, Tuple[int, int, int]]]
    ] = None

    @property
    def end_time(self) -> Time:
        """Last instant covered by the trace (analysis' default horizon)."""
        raise NotImplementedError

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """``names`` and the trace's :data:`EVENT_COLUMNS`, keyed by name."""
        raise NotImplementedError

    def _thread_runs(
        self, columns: Dict[str, np.ndarray]
    ) -> Dict[str, Tuple[int, int, int]]:
        """Thread name -> (first transition row, end row, initial code),
        indexed once per ``columns`` mapping."""
        if self._index is None or self._index[0] is not columns:
            names = columns["names"].tolist()
            offsets = columns["tr_offsets"].tolist()
            initial = columns["thread_initial"].tolist()
            runs = {
                names[index]: (offsets[row], offsets[row + 1], initial[row])
                for row, index in enumerate(columns["thread_idx"].tolist())
            }
            self._index = (columns, runs)
        return self._index[1]

    def thread_names(self) -> List[str]:
        """Threads with at least one transition, sorted."""
        return sorted(self._thread_runs(self.columns))

    @property
    def thread_count(self) -> int:
        """Threads with at least one transition."""
        return len(self._thread_runs(self.columns))

    @property
    def transition_count(self) -> int:
        """Transitions over all threads."""
        return int(self.columns["tr_offsets"][-1])

    def thread_columns(self, thread_name: str) -> ThreadColumns:
        """``thread_name``'s transitions as int64 times and int8 states.

        A thread with no transitions has empty columns and an initial
        SLEEPING state.
        """
        columns = self.columns
        start, stop, initial = self._thread_runs(columns).get(
            thread_name, _NO_RUN
        )
        return ThreadColumns(
            columns["tr_time"][start:stop],
            columns["tr_state"][start:stop],
            initial,
        )

    @property
    def migrations(self) -> Dict[str, int]:
        """Core migrations per thread, in name order."""
        columns = self.columns
        names = columns["names"].tolist()
        return {
            names[index]: count
            for index, count in zip(
                columns["mig_thread"].tolist(), columns["mig_count"].tolist()
            )
        }

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
