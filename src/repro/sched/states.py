"""Thread-state taxonomy and per-thread time accounting.

The states mirror what Perfetto exposes for Linux scheduling traces,
because §5 of the paper reports exactly these:

* ``RUNNING`` — on a CPU core.
* ``RUNNABLE`` — woken and waiting for a core (voluntary wait).
* ``RUNNABLE_PREEMPTED`` — forcibly descheduled while still runnable,
  either by a higher-priority wakeup or a quantum rotation with waiters.
* ``SLEEPING`` — blocked with nothing to run (interruptible sleep).
* ``UNINTERRUPTIBLE`` — blocked on I/O or direct reclaim (the Linux
  ``D`` state); this is where thrashing hurts.
* ``DEAD`` — exited or killed (terminal).
"""

from __future__ import annotations

import enum
from typing import Dict

from ..sim.clock import Time


class ThreadState(enum.Enum):
    """Scheduler-visible thread states (Perfetto naming)."""

    # Members are singletons, so the identity hash is as correct as the
    # default name hash — and C-level, which matters because the
    # accounting dicts below are hit on every state switch.
    __hash__ = object.__hash__

    RUNNING = "Running"
    RUNNABLE = "Runnable"
    RUNNABLE_PREEMPTED = "Runnable (Preempted)"
    SLEEPING = "Sleeping"
    UNINTERRUPTIBLE = "Uninterruptible Sleep"
    DEAD = "Dead"


#: States in which a thread wants (or holds) a CPU.
CPU_DEMANDING_STATES = frozenset(
    {ThreadState.RUNNING, ThreadState.RUNNABLE, ThreadState.RUNNABLE_PREEMPTED}
)


class StateAccounting:
    """Accumulates time spent per state for one thread.

    The accounting is interval-exact: a state change (made by the
    scheduler, which owns these fields) adds the open interval
    ``now - since`` to the old state's total and reopens at ``now`` in
    the new state, so the per-state totals of a finished thread
    partition its lifetime.
    """

    __slots__ = ("current", "since", "totals")

    def __init__(self, initial: ThreadState, start_time: Time) -> None:
        self.current = initial
        self.since: Time = start_time
        self.totals: Dict[ThreadState, Time] = {state: 0 for state in ThreadState}

    def total(self, state: ThreadState, now: Time) -> Time:
        """Total time in ``state`` including the open interval up to ``now``."""
        result = self.totals[state]
        if self.current is state:
            result += now - self.since
        return result
