"""The scheduler's explicit routes, kept as a reference for its shortcuts.

``Scheduler.post`` puts a sleeping thread straight onto an idle core,
and ``Scheduler._slice_end`` puts a finished thread to sleep, or
re-arms an unfinished slice, without the general rotation logic.
Those shortcuts must not change a single decision.  The functions here
are the routes without them: every wakeup goes through ``_advance``
(RUNNABLE, runqueue append, dispatch scan) and every slice end through
the full rotation logic.  :func:`use_explicit_routes` patches them in,
so a test can run the same workload both ways and compare.
"""

from repro.sched.scheduler import CpuWork, Scheduler, ThreadState
from repro.sim.bus import SCHED_PREEMPT


def explicit_post(self, thread, item):
    if thread.dead:
        return
    thread.queue.append(item)
    if thread.accounting.current is ThreadState.SLEEPING:
        self._advance(thread)


def explicit_slice_end(self, core):
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
            if core.current is thread:
                core.current = None
            self._dispatch()
            return
        if core.current is not thread:
            self._dispatch()
            return

    has_more_cpu_work = bool(thread.queue) and isinstance(thread.queue[0], CpuWork)
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
        if self._elided_count:
            self._materialize_lower(thread.sched_class)
        self._transition(thread, ThreadState.RUNNABLE_PREEMPTED)
        thread.preemptions_suffered += 1
        self.preemption_count += 1
        self._rq[thread.sched_class].append(thread)
        if SCHED_PREEMPT in self._topics:
            self.sim.emit(
                SCHED_PREEMPT, victim=thread, victor=waiter,
                core=core.index, kind="rotate",
            )
    else:
        self._transition(thread, ThreadState.SLEEPING)
        if thread.queue:
            self._advance(thread)
    self._dispatch()


def use_explicit_routes(patch):
    """Patch the explicit routes into :class:`Scheduler` through a
    ``monkeypatch`` (or ``monkeypatch.context()``) object."""
    patch.setattr(Scheduler, "post", explicit_post)
    patch.setattr(Scheduler, "_slice_end", explicit_slice_end)
