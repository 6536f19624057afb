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

A recorder can be :meth:`~TraceRecorder.detach`-ed once its window of
interest has passed: the subscriptions come off the emit bus (so the
rest of the session stops paying the subscribed-emit cost), counter
sampling stops, and the trace's :attr:`~TraceRecorder.end_time` freezes
at the detach instant — which is also the precondition for persisting
it with :func:`repro.trace.store.save_trace`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from ..sched.scheduler import Thread
from ..sched.states import ThreadState
from ..sim.clock import Time, seconds
from ..sim.engine import Simulator
from ..sim.periodic import PeriodicService
from .view import Preemption, ThreadColumns, TraceView, Transition

__all__ = ["Preemption", "TraceRecorder", "Transition"]


class TraceRecorder(TraceView):
    """Records scheduling events and counter tracks for later analysis."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.start_time: Time = sim.now
        self.transitions: Dict[str, List[Transition]] = defaultdict(list)
        self.preemptions: List[Preemption] = []
        self.rotations: List[Preemption] = []
        self.migrations: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, List[Tuple[Time, float]]] = defaultdict(list)
        self.initial_states: Dict[str, ThreadState] = {}
        self._counter_fns: List[Tuple[str, Callable[[], float]]] = []
        self._sampler: Optional[PeriodicService] = None
        self._end_time: Optional[Time] = None
        #: Per-thread columns, kept once detached (see thread_columns).
        self._columns: Dict[str, ThreadColumns] = {}
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

    def thread_columns(self, thread_name: str) -> ThreadColumns:
        """Columns built from :attr:`transitions`.

        While attached the lists still grow, so the columns are built
        afresh on each call; after :meth:`detach` each thread's are
        built once and shared by every later query.
        """
        if self._end_time is None:
            return super().thread_columns(thread_name)
        columns = self._columns.get(thread_name)
        if columns is None:
            columns = super().thread_columns(thread_name)
            self._columns[thread_name] = columns
        return columns

    # ------------------------------------------------------------------
    # Event capture
    # ------------------------------------------------------------------
    def _on_state(self, time: Time, thread: Thread, old: ThreadState, new: ThreadState) -> None:
        name = thread.name
        if name not in self.initial_states:
            self.initial_states[name] = old
        self.transitions[name].append((time, new))

    def _on_preempt(
        self,
        time: Time,
        victim: Thread,
        victor: Optional[Thread],
        core: int,
        kind: str = "preempt",
    ) -> None:
        victor_name = victor.name if victor is not None else "?"
        record = (time, victim.name, victor_name, core)
        if kind == "preempt":
            self.preemptions.append(record)
        else:
            self.rotations.append(record)

    def _on_migrate(self, time: Time, thread: Thread, src: int, dst: int) -> None:
        self.migrations[thread.name] += 1

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
