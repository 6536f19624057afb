"""In-simulation trace recording (Perfetto analog).

The recorder subscribes to the engine's instrumentation topics and
stores what Perfetto would capture from ftrace on a real device:

* thread state transitions (``sched.state``),
* preemption events with victim and victor (``sched.preempt``),
* core migrations (``sched.migrate``).

Because the simulator records its own ground-truth schedule, the §5
analyses computed from these traces are exact rather than sampled.

Events are kept as ints from the moment they are recorded: per thread,
an ``array`` of int64 ticks and one of int8 state codes; preemption and
rotation rows as ticks and cores plus the two thread names.  From those
the recorder builds the trace store's column groups
(:data:`~repro.trace.view.EVENT_COLUMNS`) — on every read while it is
attached, and once for good at :meth:`~TraceRecorder.detach`, when the
record-time buffers are dropped.

Detaching also takes the subscriptions off the emit bus (so the rest
of the session stops paying the subscribed-emit cost) and freezes the
trace's :attr:`~TraceRecorder.end_time` at the detach instant — which
is also the precondition for persisting it with
:func:`repro.trace.store.save_trace`.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sched.scheduler import Thread
from ..sched.states import ThreadState
from ..sim.clock import Time
from ..sim.engine import Simulator
from .view import EVENT_COLUMNS, STATE_INDEX, TraceView

__all__ = ["TraceRecorder"]

#: (ticks, victim names, victor names, cores) of displacement rows.
_Rows = Tuple["array[int]", List[str], List[str], "array[int]"]


class TraceRecorder(TraceView):
    """Records scheduling events for later analysis."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.start_time: Time = sim.now
        #: Thread name -> (initial state code, transition ticks, codes).
        self._threads: Dict[str, Tuple[int, "array[int]", "array[int]"]] = {}
        #: ``pre`` (preemptions) / ``rot`` (rotations) -> their rows.
        self._rows: Dict[str, _Rows] = {
            prefix: (array("q"), [], [], array("q")) for prefix in ("pre", "rot")
        }
        self._migrations: Dict[str, int] = defaultdict(int)
        self._end_time: Optional[Time] = None
        #: The columns built at detach.
        self._frozen: Optional[Dict[str, np.ndarray]] = None
        sim.on("sched.state", self._on_state)
        sim.on("sched.preempt", self._on_preempt)
        sim.on("sched.migrate", self._on_migrate)

    @property
    def end_time(self) -> Time:
        """``sim.now`` while attached; frozen by :meth:`detach`."""
        return self.sim.now if self._end_time is None else self._end_time

    @property
    def detached(self) -> bool:
        return self._end_time is not None

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """Built afresh on each read while attached; fixed by detach."""
        if self._frozen is None:
            return self._build_columns()
        return self._frozen

    def detach(self) -> None:
        """Stop recording: unsubscribe and freeze the span.

        After this the recorder costs the simulation nothing (a session
        that keeps running emits to nobody) and the trace is immutable —
        safe to analyze, persist, or ship across a process boundary.
        Idempotent: a second detach is a no-op and keeps the original
        end time.
        """
        if self._end_time is not None:
            return
        self._end_time = self.sim.now
        sim = self.sim
        sim.off("sched.state", self._on_state)
        sim.off("sched.preempt", self._on_preempt)
        sim.off("sched.migrate", self._on_migrate)
        self._frozen = self._build_columns()
        self._threads.clear()
        self._rows.clear()
        self._migrations.clear()

    def _build_columns(self) -> Dict[str, np.ndarray]:
        """The store's columns from the record-time buffers, with the
        dtypes of :data:`~repro.trace.view.EVENT_COLUMNS`."""
        threads = sorted(self._threads)
        actors = set(threads)
        actors.update(self._migrations)
        for _ticks, victims, victors, _cores in self._rows.values():
            actors.update(victims)
            actors.update(victors)
        names = sorted(actors)
        table = {name: index for index, name in enumerate(names)}

        tr_time: "array[int]" = array("q")
        tr_state: "array[int]" = array("b")
        tr_offsets = [0]
        for thread in threads:
            _initial, ticks, codes = self._threads[thread]
            tr_time.extend(ticks)
            tr_state.extend(codes)
            tr_offsets.append(len(tr_time))
        migrating = sorted(self._migrations)

        values = {
            "thread_idx": [table[thread] for thread in threads],
            "thread_initial": [self._threads[thread][0] for thread in threads],
            "tr_offsets": tr_offsets,
            "tr_time": tr_time,
            "tr_state": tr_state,
            "mig_thread": [table[thread] for thread in migrating],
            "mig_count": [self._migrations[thread] for thread in migrating],
        }
        for prefix, (ticks, victims, victors, cores) in self._rows.items():
            values[f"{prefix}_time"] = ticks
            values[f"{prefix}_victim"] = [table[name] for name in victims]
            values[f"{prefix}_victor"] = [table[name] for name in victors]
            values[f"{prefix}_core"] = cores
        return {
            "names": np.array(names, dtype=np.str_),
            **{name: np.array(values[name], dtype=dtype)
               for name, dtype in EVENT_COLUMNS.items()},
        }

    # ------------------------------------------------------------------
    # Event capture
    # ------------------------------------------------------------------
    def _on_state(self, time: Time, thread: Thread, old: ThreadState, new: ThreadState) -> None:
        run = self._threads.get(thread.name)
        if run is None:
            run = (STATE_INDEX[old], array("q"), array("b"))
            self._threads[thread.name] = run
        run[1].append(time)
        run[2].append(STATE_INDEX[new])

    def _on_preempt(
        self,
        time: Time,
        victim: Thread,
        victor: Optional[Thread],
        core: int,
        kind: str,
    ) -> None:
        ticks, victims, victors, cores = self._rows[
            "pre" if kind == "preempt" else "rot"
        ]
        ticks.append(time)
        victims.append(victim.name)
        victors.append(victor.name if victor is not None else "?")
        cores.append(core)

    def _on_migrate(self, time: Time, thread: Thread, src: int, dst: int) -> None:
        self._migrations[thread.name] += 1
