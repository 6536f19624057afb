"""In-simulation trace recording (Perfetto analog).

The recorder subscribes to the engine's instrumentation topics and
stores what Perfetto would capture from ftrace on a real device:

* thread state transitions (``sched.state``),
* preemption events with victim and victor (``sched.preempt``),
* core migrations (``sched.migrate``),
* named counter tracks sampled periodically (free memory, rendered
  FPS, per-thread CPU utilization, ...).

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
of the session stops paying the subscribed-emit cost), stops counter
sampling, and freezes the trace's :attr:`~TraceRecorder.end_time` at
the detach instant — which is also the precondition for persisting it
with :func:`repro.trace.store.save_trace`.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sched.scheduler import Thread
from ..sched.states import ThreadState
from ..sim.clock import Time, seconds
from ..sim.engine import Simulator
from ..sim.periodic import PeriodicService
from .view import STATE_INDEX, TraceView

__all__ = ["TraceRecorder"]

#: (ticks, victim names, victor names, cores) of displacement rows.
_Rows = Tuple["array[int]", List[str], List[str], "array[int]"]


class TraceRecorder(TraceView):
    """Records scheduling events and counter tracks for later analysis."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.start_time: Time = sim.now
        self.counters: Dict[str, List[Tuple[Time, float]]] = defaultdict(list)
        #: Thread name -> (initial state code, transition ticks, codes).
        self._threads: Dict[str, Tuple[int, "array[int]", "array[int]"]] = {}
        #: ``pre`` (preemptions) / ``rot`` (rotations) -> their rows.
        self._rows: Dict[str, _Rows] = {
            prefix: (array("q"), [], [], array("q")) for prefix in ("pre", "rot")
        }
        self._migrations: Dict[str, int] = defaultdict(int)
        self._counter_fns: List[Tuple[str, Callable[[], float]]] = []
        self._sampler: Optional[PeriodicService] = None
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
        """Stop recording: unsubscribe, end sampling, freeze the span.

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
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        self._frozen = self._build_columns()
        self._threads.clear()
        self._rows.clear()
        self._migrations.clear()

    def _build_columns(self) -> Dict[str, np.ndarray]:
        """The store's column groups from the record-time buffers."""
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
        counter_names = sorted(self.counters)
        samples = [self.counters[name] for name in counter_names]

        columns: Dict[str, np.ndarray] = {
            "names": np.array(names, dtype=np.str_),
            "thread_idx": np.array(
                [table[thread] for thread in threads], dtype=np.int32
            ),
            "thread_initial": np.array(
                [self._threads[thread][0] for thread in threads],
                dtype=np.int8,
            ),
            "tr_offsets": np.array(tr_offsets, dtype=np.int64),
            "tr_time": np.array(tr_time, dtype=np.int64),
            "tr_state": np.array(tr_state, dtype=np.int8),
            "mig_thread": np.array(
                [table[thread] for thread in migrating], dtype=np.int32
            ),
            "mig_count": np.array(
                [self._migrations[thread] for thread in migrating],
                dtype=np.int64,
            ),
            "counter_names": np.array(counter_names, dtype=np.str_),
            "ctr_offsets": np.cumsum(
                [0] + [len(track) for track in samples], dtype=np.int64
            ),
            "ctr_time": np.array(
                [time for track in samples for time, _ in track],
                dtype=np.int64,
            ),
            "ctr_value": np.array(
                [value for track in samples for _, value in track],
                dtype=np.float64,
            ),
        }
        for prefix, (ticks, victims, victors, cores) in self._rows.items():
            columns[f"{prefix}_time"] = np.array(ticks, dtype=np.int64)
            columns[f"{prefix}_victim"] = np.array(
                [table[name] for name in victims], dtype=np.int32
            )
            columns[f"{prefix}_victor"] = np.array(
                [table[name] for name in victors], dtype=np.int32
            )
            columns[f"{prefix}_core"] = np.array(cores, dtype=np.int32)
        return columns

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
        kind: str = "preempt",
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

    # ------------------------------------------------------------------
    # Counter tracks
    # ------------------------------------------------------------------
    def track_counter(self, name: str, fn: Callable[[], float]) -> None:
        """Register a counter sampled on every sampling tick."""
        self._counter_fns.append((name, fn))

    def start_sampling(self, period: Time = seconds(0.5)) -> None:
        """Begin periodic sampling of all registered counters."""
        if self._sampler is not None or self._end_time is not None:
            return
        self._sampler = PeriodicService(
            self.sim, period, self._sample, label="trace:sample"
        )
        self._sampler.fire()  # first sample lands inline

    def _sample(self) -> None:
        for name, fn in self._counter_fns:
            self.counters[name].append((self.sim.now, float(fn())))
