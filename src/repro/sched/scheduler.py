"""Multi-core preemptive priority scheduler.

The model captures the three scheduling facts §5 of the paper hinges on:

1. *mmcqd* (storage I/O daemon) runs in a strictly higher scheduling
   class than foreground threads, so its wakeups **preempt** video
   threads (``Runnable (Preempted)`` time, Table 5).
2. *kswapd* runs in the **same** class as foreground threads, so video
   threads must fair-share the CPU with it rather than being preempted
   by it (§5 "the CPU is almost never preempted for kswapd").
3. Threads blocked on disk I/O or direct reclaim sit in
   ``Uninterruptible Sleep`` and render nothing while they wait.

Work is expressed in reference microseconds (see :mod:`repro.sched.cpu`).
A thread executes a FIFO queue of work items; ``CpuWork`` consumes core
time and ``IoWait`` blocks the thread until an external completion.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..sim.clock import Time, millis
from ..sim.engine import Simulator
from .cpu import Core
from .states import StateAccounting, ThreadState

#: Default scheduling quantum (round-robin slice) in ticks.
DEFAULT_QUANTUM: Time = millis(4)


class SchedClass(enum.IntEnum):
    """Strict priority classes; lower value always runs first.

    ``IO`` models the elevated priority of block-I/O kernel threads
    (mmcqd); ``FOREGROUND`` holds app threads *and* kswapd, per the
    paper's observation that they share the CPU fairly; ``BACKGROUND``
    is for cached/background app threads.
    """

    IO = 0
    FOREGROUND = 1
    BACKGROUND = 2
    IDLE = 3


class CpuWork:
    """A unit of CPU work: ``ref_us`` microseconds on a 1 GHz core."""

    __slots__ = ("remaining", "on_complete", "label")

    def __init__(
        self,
        ref_us: float,
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        if ref_us <= 0:
            raise ValueError(f"work must be positive, got {ref_us}")
        self.remaining = float(ref_us)
        self.on_complete = on_complete
        self.label = label


class IoWait:
    """A blocking point: the thread sleeps uninterruptibly until
    :meth:`Scheduler.io_complete` is called for it.

    ``start`` is invoked exactly once, when the wait reaches the head of
    the thread's queue — typically it issues the storage request.
    """

    __slots__ = ("start", "on_complete", "label", "started")

    def __init__(
        self,
        start: Callable[[], None],
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "io",
    ) -> None:
        self.start = start
        self.on_complete = on_complete
        self.label = label
        self.started = False


class Thread:
    """A schedulable thread.

    Threads are created via :meth:`Scheduler.spawn`.  Components drive
    them exclusively through :meth:`post` (enqueue work) — all state
    transitions are owned by the scheduler.
    """

    __slots__ = (
        "name", "sched_class", "scheduler", "process", "queue",
        "accounting", "last_core", "slice_label", "allowed_cores",
        "migrations", "preemptions_suffered", "dead",
    )

    def __init__(
        self,
        name: str,
        sched_class: SchedClass,
        scheduler: "Scheduler",
        process: Any = None,
    ) -> None:
        self.name = name
        self.sched_class = sched_class
        self.scheduler = scheduler
        self.process = process
        self.queue: Deque[Any] = deque()
        self.accounting = StateAccounting(ThreadState.SLEEPING, scheduler.sim.now)
        self.last_core: Optional[int] = None
        #: Precomputed event label for this thread's slice events (the
        #: scheduler arms one per quantum — formatting it every time
        #: shows up in profiles).
        self.slice_label = f"slice:{name}"
        #: Restrict scheduling to these core indices (None = any core).
        #: Implements the §7 suggestion of coordinating daemon/core
        #: placement to cut migration overhead.
        self.allowed_cores: Optional[frozenset] = None
        self.migrations = 0
        self.preemptions_suffered = 0
        self.dead = False

    # -- convenience -----------------------------------------------------
    @property
    def state(self) -> ThreadState:
        return self.accounting.current

    def post(
        self,
        ref_us: float,
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        """Enqueue CPU work and wake the thread if it is sleeping."""
        self.scheduler.post(self, CpuWork(ref_us, on_complete, label))

    def post_io(
        self,
        start: Callable[[], None],
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "io",
    ) -> None:
        """Enqueue a blocking I/O wait (see :class:`IoWait`)."""
        self.scheduler.post(self, IoWait(start, on_complete, label))

    def pin_to(self, core_indices) -> None:
        """Restrict this thread to a set of cores (CPU affinity)."""
        self.allowed_cores = frozenset(core_indices)

    def time_in(self, state: ThreadState) -> Time:
        """Total ticks this thread has spent in ``state`` so far."""
        return self.accounting.total(state, self.scheduler.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Thread {self.name} {self.state.value}>"


class Scheduler:
    """Priority scheduler over a fixed set of cores."""

    def __init__(
        self,
        sim: Simulator,
        cores: List[Core],
        quantum: Time = DEFAULT_QUANTUM,
    ) -> None:
        if not cores:
            raise ValueError("at least one core is required")
        self.sim = sim
        #: ``sim.topics`` (a live view, so never stale), held here to
        #: save an attribute hop on the emit gates of the hottest paths.
        self._topics = sim.topics
        self.cores = cores
        self.quantum = quantum
        self.threads: List[Thread] = []
        self._runqueues: Dict[SchedClass, Deque[Thread]] = {
            cls: deque() for cls in SchedClass
        }
        # Priority-ordered view of the runqueues: hot paths index this
        # tuple instead of hashing SchedClass members on every dispatch.
        self._rq: tuple = tuple(self._runqueues[cls] for cls in SchedClass)
        self.context_switches = 0
        self.preemption_count = 0
        #: Cores currently running an elided (fast-forwarded) slice
        #: chain; see :meth:`_arm_slice_end`.
        self._elided_count = 0
        #: Interior quantum boundaries that were retired analytically
        #: instead of firing a ``slice_end`` event (perf telemetry).
        self.elided_slices = 0

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        sched_class: SchedClass = SchedClass.FOREGROUND,
        process: Any = None,
    ) -> Thread:
        """Create a thread, initially sleeping with an empty work queue."""
        thread = Thread(name, sched_class, self, process)
        self.threads.append(thread)
        return thread

    def kill(self, thread: Thread) -> None:
        """Terminate a thread: drop queued work, free its core if running."""
        if thread.dead:
            return
        # Re-chop elided slices first: the accounting below (and the
        # dispatch that follows) needs every core's busy_time,
        # slice_started, and slice event to be live.  Must happen
        # before the queue is cleared — replay reads the head item.
        if self._elided_count:
            self._materialize_all()
        thread.dead = True
        thread.queue.clear()
        if thread.state is ThreadState.RUNNING:
            core = self._core_of(thread)
            self._stop_slice(core, retire=True)
            self._transition(thread, ThreadState.DEAD)
            core.current = None
            self._dispatch()
        else:
            self._remove_from_runqueue(thread)
            self._transition(thread, ThreadState.DEAD)

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def post(self, thread: Thread, item: Any) -> None:
        """Enqueue a work item; wake the thread when appropriate."""
        if thread.dead:
            return
        thread.queue.append(item)
        if thread.accounting.current is ThreadState.SLEEPING:
            self._advance(thread)

    def io_complete(self, thread: Thread) -> None:
        """Signal completion of the IoWait at the head of ``thread``'s queue."""
        if thread.dead:
            return
        if not thread.queue or not isinstance(thread.queue[0], IoWait):
            raise RuntimeError(f"{thread.name}: io_complete with no pending IoWait")
        item = thread.queue.popleft()
        if item.on_complete is not None:
            item.on_complete()
        if thread.state is ThreadState.UNINTERRUPTIBLE:
            self._advance(thread)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _advance(self, thread: Thread) -> None:
        """Process the head of ``thread``'s queue from an idle state."""
        if thread.dead:
            return
        queue = thread.queue
        if queue:
            item = queue[0]
            if isinstance(item, IoWait):
                if not item.started:
                    item.started = True
                    self._transition(thread, ThreadState.UNINTERRUPTIBLE)
                    item.start()
                # Else: already started and not yet complete — stay
                # blocked.
                return
        else:
            if thread.accounting.current is not ThreadState.SLEEPING:
                self._transition(thread, ThreadState.SLEEPING)
            return
        # Head is CPU work: become runnable and try to get a core.
        if thread.accounting.current not in (
            ThreadState.RUNNABLE,
            ThreadState.RUNNABLE_PREEMPTED,
            ThreadState.RUNNING,
        ):
            # A thread is entering a runqueue: every elided core this
            # thread could rotate with or preempt must re-arm real
            # quanta first, so those decisions see live slice state.
            # Cores running strictly higher-priority threads are
            # untouchable by this waiter (the explicit chain would
            # re-arm through it without consulting them) and stay
            # elided.
            if self._elided_count:
                self._materialize_lower(thread.sched_class)
            topics = self._topics
            if "sched.state" not in topics and "sched.wakeup" not in topics:
                rq = self._rq
                if not (rq[0] or rq[1] or rq[2] or rq[3]):
                    core = self._pick_core(thread)
                    if core is not None:
                        # Fast path: nothing else is runnable anywhere
                        # and an idle core takes the thread immediately.
                        # The explicit route — RUNNABLE for zero ticks,
                        # runqueue append, dispatch scan, remove — is
                        # pure bookkeeping with identical accounting
                        # (the skipped RUNNABLE interval has zero
                        # length), so go straight to the slice.  Only
                        # a ``sched.state`` or ``sched.wakeup``
                        # subscriber (the trace recorder) could see the
                        # difference, so those keep the explicit route;
                        # ``sched.switch`` and ``sched.migrate`` fire
                        # on both.
                        self._start_slice(thread, core)
                        return
            self._transition(thread, ThreadState.RUNNABLE)
            self._rq[thread.sched_class].append(thread)
            if "sched.wakeup" in topics:
                self.sim.emit("sched.wakeup", thread=thread)
        self._dispatch()

    def _transition(self, thread: Thread, new_state: ThreadState) -> None:
        accounting = thread.accounting
        old = accounting.current
        if old is new_state:
            return
        # Close the open interval into the old state's total and reopen
        # it in the new state (see StateAccounting).
        now = self.sim.now
        accounting.totals[old] += now - accounting.since
        accounting.current = new_state
        accounting.since = now
        if "sched.state" in self._topics:
            self.sim.emit("sched.state", thread=thread, old=old, new=new_state)

    def _core_of(self, thread: Thread) -> Core:
        for core in self.cores:
            if core.current is thread:
                return core
        raise RuntimeError(f"{thread.name} marked RUNNING but on no core")

    def _remove_from_runqueue(self, thread: Thread) -> None:
        queue = self._rq[thread.sched_class]
        try:
            queue.remove(thread)
        except ValueError:
            pass

    def _allowed(self, thread: Thread, core: Core) -> bool:
        return thread.allowed_cores is None or core.index in thread.allowed_cores

    def _pick_core(self, thread: Thread) -> Optional[Core]:
        """Prefer the thread's previous core (cache warmth), else the
        fastest idle core the thread's affinity mask allows."""
        if thread.last_core is not None:
            previous = self.cores[thread.last_core]
            if previous.current is None and self._allowed(thread, previous):
                return previous
        allowed = thread.allowed_cores
        best: Optional[Core] = None
        for core in self.cores:
            if core.current is not None:
                continue
            if allowed is not None and core.index not in allowed:
                continue
            if (
                best is None
                or core.freq_ghz > best.freq_ghz
                or (core.freq_ghz == best.freq_ghz and core.index < best.index)
            ):
                best = core
        return best

    def _dispatch(self) -> None:
        """Fill idle cores, then preempt lower-class threads if needed.

        Candidates are visited in priority-then-FIFO order.  A candidate
        whose affinity mask blocks placement is skipped (no head-of-line
        blocking); an *unrestricted* candidate that cannot be placed
        ends the pass — nothing behind it could be placed either.
        """
        placed = True
        while placed:
            placed = False
            for queue in self._rq:
                if not queue:
                    continue
                # Iterating the live deque is safe: the loop breaks
                # immediately after any mutation (remove/preempt/start).
                for thread in queue:
                    core = self._pick_core(thread)
                    if core is None:
                        # Victim selection compares live slice state
                        # (class, slice_started): re-chop any elided
                        # core this candidate could displace first.
                        if self._elided_count:
                            self._materialize_lower(thread.sched_class)
                        victim_core = self._preemption_victim(
                            thread.sched_class, thread
                        )
                        if victim_core is None:
                            if thread.allowed_cores is None:
                                return
                            continue  # affinity-blocked: try the next
                        queue.remove(thread)
                        self._preempt(victim_core, thread)
                    else:
                        queue.remove(thread)
                        self._start_slice(thread, core)
                    placed = True
                    break
                if placed:
                    break

    def _preemption_victim(
        self, sched_class: SchedClass, candidate: Thread
    ) -> Optional[Core]:
        """Find the running thread of the lowest priority strictly below
        ``sched_class`` on a core ``candidate`` may use; ties broken
        towards the longest-running slice."""
        victim: Optional[Core] = None
        for core in self.cores:
            running = core.current
            if running is None or running.sched_class <= sched_class:
                continue
            if not self._allowed(candidate, core):
                continue
            if (
                victim is None
                or running.sched_class > victim.current.sched_class
                or (
                    running.sched_class == victim.current.sched_class
                    and core.slice_started < victim.slice_started
                )
            ):
                victim = core
        return victim

    def _preempt(self, core: Core, victor: Thread) -> None:
        victim = core.current
        assert victim is not None
        self._stop_slice(core, retire=True)
        self._transition(victim, ThreadState.RUNNABLE_PREEMPTED)
        victim.preemptions_suffered += 1
        self.preemption_count += 1
        self._rq[victim.sched_class].append(victim)
        core.current = None
        if "sched.preempt" in self._topics:
            self.sim.emit(
                "sched.preempt", victim=victim, victor=victor, core=core.index,
                kind="preempt",
            )
        self._start_slice(victor, core)

    def _start_slice(self, thread: Thread, core: Core) -> None:
        assert core.idle, f"core {core.index} busy"
        if not thread.queue or not isinstance(thread.queue[0], CpuWork):
            # The thread was requeued while its last work item finished
            # (mid-handler preemption): nothing to run after all.
            self._transition(thread, ThreadState.SLEEPING)
            self._advance(thread)
            self._dispatch()
            return
        if thread.last_core is not None and thread.last_core != core.index:
            thread.migrations += 1
            if "sched.migrate" in self._topics:
                self.sim.emit(
                    "sched.migrate",
                    thread=thread,
                    src=thread.last_core,
                    dst=core.index,
                )
        thread.last_core = core.index
        core.current = thread
        core.slice_started = self.sim.now
        self._transition(thread, ThreadState.RUNNING)
        self.context_switches += 1
        if "sched.switch" in self._topics:
            self.sim.emit("sched.switch", thread=thread, core=core.index)
        self._arm_slice_end(core)

    def _arm_slice_end(self, core: Core) -> None:
        # Same invariant as _slice_end: current thread's head is CpuWork.
        thread = core.current
        item = thread.queue[0]
        # Wall ticks to finish the item on this core: reference work
        # over GHz, rounded, at least one tick (the replay loop in
        # _replay_elided rounds each quantum the same way).
        freq = core.freq_ghz
        quantum = self.quantum
        to_finish = round(item.remaining / freq)
        if to_finish < 1:
            to_finish = 1
        core.slice_started = self.sim.now
        if to_finish > quantum and self._elidable(thread.sched_class):
            # Quantum elision: the work spans multiple quanta and no
            # queued thread could rotate with or preempt this core
            # (every waiter, if any, has strictly lower priority — the
            # explicit chain would re-arm straight through it), so the
            # round-robin boundaries are pure bookkeeping.
            # Schedule the completion directly and fast-forward; the
            # moment anything becomes runnable, _materialize_all
            # re-chops the in-flight chain at the exact boundary the
            # explicit chain would be on.  The completion time is the
            # sum of the chopped chain's slices — computed with the
            # same float operations _slice_end would perform, so the
            # elided chain is bit-identical to the explicit one.
            span: Time = 0
            remaining = item.remaining
            while True:
                run = round(remaining / freq)
                if run < 1:
                    run = 1
                if run > quantum:
                    run = quantum
                span += run
                remaining -= run * freq
                if remaining <= 1e-9:
                    break
            core.elide_from = self.sim.now
            core.elide_work = item.remaining
            core.slice_end_event = None
            core.elide_event = self.sim.schedule(
                span, self._elided_end, core, label=thread.slice_label
            )
            self._elided_count += 1
            return
        core.slice_end_event = self.sim.schedule(
            to_finish if to_finish < quantum else quantum,
            self._slice_end, core, label=thread.slice_label,
        )

    def _replay_elided(self, core: Core) -> Time:
        """Fast-forward an elided core's accounting to the state the
        explicit slice chain would hold at ``sim.now``.

        Retires every quantum boundary strictly before now (the
        explicit chain's ``_slice_end`` at such a boundary has already
        run from now's perspective: any event observing the core at
        ``now`` was scheduled after the boundary's slice event and so
        fires after it), leaving ``busy_time``, ``slice_started``, and
        the head item's ``remaining`` exactly as the chain would.
        Returns the end time of the in-flight slice (>= now).
        """
        now = self.sim.now
        thread = core.current
        assert thread is not None and thread.queue
        item = thread.queue[0]
        assert isinstance(item, CpuWork)
        start = core.elide_from
        remaining = core.elide_work
        quantum = self.quantum
        freq = core.freq_ghz
        eliminated = 0
        while True:
            run = round(remaining / freq)
            if run < 1:
                run = 1
            if run > quantum:
                run = quantum
            end = start + run
            if end >= now:
                break
            remaining -= run * freq
            start = end
            eliminated += 1
        self.elided_slices += eliminated
        core.busy_time += start - core.elide_from
        core.slice_started = start
        item.remaining = remaining
        return end

    def _materialize(self, core: Core) -> None:
        """Re-chop one elided core: retire passed boundaries and arm a
        real ``slice_end`` for the in-flight slice."""
        end = self._replay_elided(core)
        self.sim.cancel(core.elide_event)  # type: ignore[arg-type]
        core.elide_event = None
        self._elided_count -= 1
        thread = core.current
        assert thread is not None
        core.slice_end_event = self.sim.schedule(
            end - self.sim.now, self._slice_end, core,
            label=thread.slice_label,
        )

    def _elidable(self, sched_class: SchedClass) -> bool:
        """True when no queued thread could rotate with or preempt a
        thread of ``sched_class`` (i.e. every waiter is strictly lower
        priority)."""
        rq = self._rq
        for index in range(sched_class + 1):
            if rq[index]:
                return False
        return True

    def _materialize_all(self) -> None:
        for core in self.cores:
            if core.elide_event is not None:
                self._materialize(core)

    def _materialize_lower(self, sched_class: SchedClass) -> None:
        """Re-chop every elided core a waiter of ``sched_class`` could
        interact with (equal class: rotation; lower priority:
        preemption).  Cores running strictly higher-priority threads
        stay elided."""
        for core in self.cores:
            if core.elide_event is not None:
                current = core.current
                assert current is not None
                if current.sched_class >= sched_class:
                    self._materialize(core)

    def _elided_end(self, core: Core) -> None:
        """The elided chain's completion event: replay the interior
        boundaries, then finish exactly as the last explicit
        ``_slice_end`` of the chain would."""
        core.elide_event = None
        self._elided_count -= 1
        self._replay_elided(core)
        self._slice_end(core)

    def _stop_slice(self, core: Core, retire: bool) -> None:
        """Cancel the pending slice-end event, optionally retiring the work
        executed so far in the open slice.

        When no slice event is armed we are inside this core's own
        ``_slice_end`` handler, which has already retired the elapsed
        work — retiring again would double-count it.
        """
        if core.elide_event is not None:
            # Defensive: every stop path materializes beforehand, but
            # an elided core must never be torn down with stale state.
            self._materialize(core)
        if core.slice_end_event is None:
            return
        self.sim.cancel(core.slice_end_event)
        core.slice_end_event = None
        if retire and core.current is not None:
            elapsed = self.sim.now - core.slice_started
            core.busy_time += elapsed
            if elapsed > 0 and core.current.queue:
                item = core.current.queue[0]
                if isinstance(item, CpuWork):
                    item.remaining -= elapsed * core.freq_ghz

    def _slice_end(self, core: Core) -> None:
        # Invariants (checked by the armed-slice contract, not asserts —
        # this is the hottest handler in the simulator): the core runs a
        # live thread whose queue head is the CpuWork being sliced.
        thread = core.current
        core.slice_end_event = None
        elapsed = self.sim.now - core.slice_started
        core.busy_time += elapsed
        item = thread.queue[0]
        item.remaining -= elapsed * core.freq_ghz

        if item.remaining <= 1e-9:
            thread.queue.popleft()
            if item.on_complete is not None:
                item.on_complete()
            if thread.dead:
                # on_complete (or a preceding callback) killed the thread.
                if core.current is thread:
                    core.current = None
                self._dispatch()
                return
            if core.current is not thread:
                # on_complete re-entered the scheduler (a wakeup preempted
                # this very core, or a kill freed it); the nested call
                # already made all scheduling decisions for this core.
                self._dispatch()
                return

        # Decide what happens to the core next.
        has_more_cpu_work = bool(thread.queue) and isinstance(thread.queue[0], CpuWork)
        # The head of the highest-priority non-empty runqueue.
        waiter = None
        for rq_queue in self._rq:
            if rq_queue:
                waiter = rq_queue[0]
                break
        must_rotate = waiter is not None and waiter.sched_class <= thread.sched_class

        if has_more_cpu_work and not must_rotate:
            self._arm_slice_end(core)
            return

        core.current = None
        if has_more_cpu_work:
            # Involuntary rotation: still runnable but descheduled.
            # The thread re-enters the runqueue, so any elided core it
            # could interact with must re-arm real quanta first.
            if self._elided_count:
                self._materialize_lower(thread.sched_class)
            self._transition(thread, ThreadState.RUNNABLE_PREEMPTED)
            thread.preemptions_suffered += 1
            self.preemption_count += 1
            self._rq[thread.sched_class].append(thread)
            if "sched.preempt" in self._topics:
                self.sim.emit(
                    "sched.preempt", victim=thread, victor=waiter,
                    core=core.index, kind="rotate",
                )
        else:
            # Out of CPU work: block on IO, or sleep.  With an empty
            # queue _advance would be a no-op (already SLEEPING), so
            # only call it when an IoWait is pending.
            self._transition(thread, ThreadState.SLEEPING)
            if thread.queue:
                self._advance(thread)
        self._dispatch()
