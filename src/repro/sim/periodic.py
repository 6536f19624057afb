"""Periodic-service helper: the one way to write a polling loop.

Every kernel daemon and client loop in the model used to hand-roll the
same idiom — a callback that does its work and then re-schedules itself
one period out.  Each copy re-implemented the same three details (the
re-arm must happen *after* the body so same-instant work fires in
submission order; an early ``return`` silently ends the loop; the
pending event must be cancelled on teardown), and each copy was a
separate place for those details to drift.  :class:`PeriodicService`
centralises them.

The service is deliberately a thin veneer over ``Simulator.schedule``:
it arms exactly one event per period with the same label and in the
same statement position the hand-rolled loops used, so adopting it is
bit-identical — event sequence numbers, labels, and firing order are
unchanged (the replay-determinism suite pins this).

Usage::

    service = PeriodicService(sim, period, body, label="pressure:poll")
    service.start()          # first fire one period from now
    # ... or service.fire() to run the body synchronously right away
    # (the idiom for loops whose first iteration is inline), and
    service.stop()           # from the body or outside, ends the loop
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .clock import Time
from .engine import Simulator
from .events import Event


class PeriodicService:
    """Runs ``fn(*args)`` every ``period`` ticks until stopped.

    The re-arm happens after ``fn`` returns, mirroring the tail
    ``schedule`` of a hand-rolled loop: anything ``fn`` schedules gets
    a smaller sequence number than the next tick.  ``fn`` may call
    :meth:`stop` to end the loop (the idiom for "stop polling once the
    process dies" guards that used to be early returns).
    """

    __slots__ = ("sim", "period", "_fn", "_args", "_label", "_event",
                 "_stopped")

    def __init__(
        self,
        sim: Simulator,
        period: Time,
        fn: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self._fn = fn
        self._args = args
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self, delay: Optional[Time] = None) -> None:
        """Arm the first firing ``delay`` ticks from now (default: one
        period)."""
        if self._stopped or self._event is not None:
            return
        self._event = self.sim.schedule(
            self.period if delay is None else delay,
            self._fire, label=self._label,
        )

    def fire(self) -> None:
        """Run the body synchronously now, then re-arm as usual — the
        entry point for loops whose first iteration is inline."""
        self._fire()

    def stop(self) -> None:
        """End the loop; cancels the pending firing, if any."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        self._event = None
        self._fn(*self._args)
        if not self._stopped and self._event is None:
            # The canonical self-rescheduling poll lives here so nothing
            # else has to hand-roll it.
            self._event = self.sim.schedule(  # repro: noqa[REP108]
                self.period, self._fire, label=self._label
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else (
            "armed" if self._event is not None else "idle"
        )
        return f"<PeriodicService {self._label or self._fn!r} {state}>"
