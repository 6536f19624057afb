"""The discrete-event simulator core.

:class:`Simulator` owns the clock, the event queue, and the random
streams.  Components register callbacks with :meth:`Simulator.schedule`
(relative delay) or :meth:`Simulator.schedule_at` (absolute time) and the
engine fires them in timestamp order.  A run advances until the horizon
passed to :meth:`run`, until the queue drains, or until a component calls
:meth:`stop`.

The engine is deliberately callback-based rather than coroutine-based:
the Android kernel daemons modelled on top of it are themselves
event-driven state machines (wakeups, watermarks, I/O completions), so
callbacks map one-to-one onto the mechanisms being simulated and keep
stack traces flat.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, KeysView, List, Optional

from .bus import check_subscriber
from .clock import Time
from .events import INSERTION_WINDOW, Event, EventQueue
from .rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation engine with named random streams."""

    __slots__ = ("now", "random", "_queue", "_stopped", "_hooks", "topics")

    def __init__(self, seed: int = 0) -> None:
        self.now: Time = 0
        self.random = RandomStreams(seed)
        self._queue = EventQueue()
        self._stopped = False
        self._hooks: Dict[str, List[Callable[..., None]]] = {}
        #: Live, read-only view of the topics with at least one
        #: subscriber (the keys of ``_hooks``).  Hot call sites test
        #: ``"<topic>" in sim.topics`` before building an emit payload,
        #: so a site costs one set probe unless its own topic is
        #: subscribed — a listener on one topic does not tax the
        #: others.  :meth:`off` drops a topic's key with its last
        #: subscriber, so the view needs no upkeep of its own.
        self.topics: KeysView[str] = self._hooks.keys()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: Time,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` ticks (must be >= 0).

        The body is :meth:`EventQueue.push` inlined (saving a call
        frame on the single hottest function in the simulator); the two
        must be kept in lockstep.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label or fn}")
        queue = self._queue
        time = self.now + delay
        seq = queue._seq
        queue._seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.label = label
        event.counted = False
        buckets = queue._buckets
        bucket = buckets.setdefault(time, event)
        if bucket is event:
            times = queue._times
            if times and time < times[-1]:
                if len(times) - queue._head <= INSERTION_WINDOW:
                    insort(times, time, queue._head)
                else:
                    times.append(time)
                    queue._dirty = True
            else:
                times.append(time)
        elif isinstance(bucket, list):
            bucket.append(event)
        else:
            buckets[time] = [bucket, event]
        queue._live += 1
        return event

    def schedule_at(
        self,
        time: Time,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` (must be >= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        return self._queue.push(time, fn, args, label)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously-scheduled event; None is accepted and ignored."""
        if event is not None and not event.cancelled:
            event.cancel()
            self._queue.note_cancelled(event)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[Time] = None) -> Time:
        """Fire events in order until the horizon or queue exhaustion.

        Returns the simulation time when the run stopped.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the
        last event fired earlier, so back-to-back ``run`` calls tile time.
        """
        self._stopped = False
        queue = self._queue
        pop_batch = queue.pop_batch
        # The singleton-timestamp case (the overwhelming majority of
        # pops) is inlined against the queue's internals: one list
        # index, one dict pop, a cursor bump, fire.  Anything else —
        # same-instant batches, leading cancelled runs, a deferred
        # index sort — drops to the general path.  The inlined steps
        # mirror EventQueue.pop_batch/_next_time/_pop_time exactly; the
        # two must be kept in lockstep.
        times = queue._times
        buckets = queue._buckets
        # A horizon of +inf turns the two-test "until is not None and
        # head_time > until" into a single always-false comparison.
        horizon = float("inf") if until is None else until
        take = buckets.pop
        while not self._stopped:
            try:
                head_time = times[queue._head]
            except IndexError:
                break
            if queue._dirty:
                if queue._next_time() is None:
                    break
                head_time = times[queue._head]
            bucket = take(head_time)
            if isinstance(bucket, Event) and not bucket.cancelled:
                if head_time > horizon:
                    buckets[head_time] = bucket
                    break
                head = queue._head + 1
                if head < len(times):
                    queue._head = head
                else:
                    times.clear()
                    queue._head = 0
                bucket.counted = True
                queue._live -= 1
                self.now = head_time
                bucket.fn(*bucket.args)
                continue
            # Same-instant batch or cancelled head: restore the bucket
            # and take the general path.
            buckets[head_time] = bucket
            batch = pop_batch(until)
            if batch is None:
                break
            if isinstance(batch, Event):
                # A cancelled-singleton strip inside pop_batch can
                # surface a live singleton the fast path never saw.
                self.now = batch.time
                batch.fn(*batch.args)
                continue
            first = batch[0]
            self.now = first.time
            # The head of a batch cannot have been cancelled (nothing
            # ran between pop and here), so fire it unconditionally.
            first.fn(*first.args)
            size = len(batch)
            if size > 1:
                retire = queue.retire
                index = 1
                while index < size and not self._stopped:
                    event = batch[index]
                    # Retire the member as we reach it: an event whose
                    # cancellation was accounted mid-batch is a no-op
                    # here, any other leaves the live count now.
                    retire(event)
                    # Later members may have been cancelled by an
                    # earlier event in this same batch.
                    if not event.cancelled:
                        event.fn(*event.args)
                    index += 1
                if index < size:  # stopped mid-batch: keep the rest
                    for later in batch[index:]:
                        if later.cancelled:
                            retire(later)
                        else:
                            queue.requeue(later)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Halt the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Hooks: lightweight pub/sub used by the trace recorder and tests
    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True while any topic has a subscriber (see :attr:`topics`)."""
        return bool(self._hooks)

    def on(self, topic: str, callback: Callable[..., None]) -> None:
        """Subscribe ``callback`` to ``topic`` (see :meth:`emit`).

        The topic must be declared in :data:`~repro.sim.bus.TOPIC_FIELDS`
        and the callback must take its fields by name: see
        :func:`~repro.sim.bus.check_subscriber`, which raises here,
        once, rather than on the first delivery.
        """
        check_subscriber(topic, callback)
        self._hooks.setdefault(topic, []).append(callback)

    def off(self, topic: str, callback: Callable[..., None]) -> None:
        """Remove one ``topic`` subscription added with :meth:`on`.

        Removing a callback that is not subscribed is a no-op, so
        teardown paths (e.g. :meth:`~repro.trace.TraceRecorder.detach`)
        can run idempotently.  When a topic's last subscriber is gone
        the topic leaves :attr:`topics`, and the call sites gated on it
        stop building emit payloads entirely.
        """
        hooks = self._hooks.get(topic)
        if hooks is None:
            return
        try:
            hooks.remove(callback)
        except ValueError:
            return
        if not hooks:
            del self._hooks[topic]

    def emit(self, topic: str, **payload: Any) -> None:
        """Publish an instrumentation event to all ``topic`` subscribers.

        ``payload`` is the topic's declared fields
        (:data:`~repro.sim.bus.TOPIC_FIELDS`); it is not re-checked
        here, on the hot path.
        """
        hooks = self._hooks.get(topic)
        if not hooks:
            return
        now = self.now
        for callback in hooks:
            callback(time=now, **payload)
