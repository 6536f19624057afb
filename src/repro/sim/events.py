"""Event primitives for the discrete-event engine.

An :class:`Event` is a callback scheduled at an absolute simulated time.
Events at the same instant fire in scheduling order (FIFO), which the
sequence number guarantees.  Cancellation is O(1): the event is flagged
and skipped when it reaches the head of the queue, the standard "lazy
deletion" idiom for timer schedulers.

:class:`EventQueue` is a *hashed timer wheel*: events live in
per-timestamp FIFO buckets and a two-level sorted index tracks the
occupied timestamps.  The DES workload is dominated by a high-churn
periodic class — scheduler quanta, poller periods, frame deadlines —
that lands many events on few distinct timestamps, so the common
``push`` is a dict probe plus a list append, re-arming a cancelled
timer on an occupied slot is O(1), and draining a timestamp hands the
engine the bucket itself with zero copying.

The timestamp index (``_times``) is an ascending list consumed through
a head cursor rather than a binary heap: popping the next timestamp is
an index increment, and the two ways a new timestamp can arrive are
both cheap — a time beyond the current tail (the monotone far edge of
periodic trains and pre-scheduled horizons) appends in O(1), and a
near-term time lands by binary insertion while the pending window is
small.  Only when an out-of-order time arrives against a *large*
pending window does the index fall back to append-and-mark-dirty, and
the next pop re-sorts the pending region in one C-speed batch
(timsort, which exploits the mostly-sorted runs this produces).  That
two-level split plays the role of a hierarchical wheel's near/far
levels while keeping exact timestamps — no granularity rounding.

One more allocation is shaved off the one-event-per-timestamp case
(ubiquitous: a mostly-idle simulated second is a sparse train of
singleton timers): a bucket is stored as the :class:`Event` itself and
only promoted to a ``list`` when a second event lands on the same
timestamp.  :meth:`pop_batch` surfaces that distinction to the engine
(``Event`` = singleton fast path, ``list`` = same-instant batch);
:meth:`pop_ready` keeps the historical list-only contract.  Bucket
order is push order, which makes (time, seq) firing order structural
rather than compared.

Live-count accounting lives on the event itself (:attr:`Event.counted`):
an event leaves the live count exactly once — when it is *retired*
(fired, or its cancellation first accounted) — no matter how many code
paths (``cancel``, lazy discard in ``pop``/``peek_time``, external
``note_cancelled``, the engine's batch loop) observe it.

A subtlety worth spelling out: :meth:`EventQueue.pop_batch` removes a
whole timestamp bucket *before* any of its events runs, but only the
head — which fires immediately, nothing can run in between — leaves the
live count at pop time.  The rest of the batch remains counted until
the engine retires each member as it reaches it.  This keeps
``len(queue)`` (and ``Simulator.pending_events``) exact from the
perspective of a batch callback: same-timestamp events that have been
popped but not yet fired are still pending, and cancelling one of them
mid-batch (``note_cancelled``) adjusts the count immediately instead of
silently no-opping against a pre-counted event.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .clock import Time

#: Pending-window size up to which an out-of-order timestamp is placed
#: by binary insertion; beyond it the index defers to a batch re-sort.
#: Real sessions keep a few dozen distinct pending times, so insertion
#: memmoves stay trivially small; the deferred path only triggers for
#: adversarial far-future floods.
INSERTION_WINDOW = 256


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`
    and :meth:`EventQueue.push` only, each with ``Event.__new__`` and
    every slot set by hand (no ``__init__`` call on the hot path):
    ``time``, ``seq``, ``fn``, ``args``, ``label``, ``cancelled`` (False)
    and ``counted`` (False; True once the event has left the queue's
    live count).  User code holds them only to call :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "label", "counted")

    time: Time
    seq: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    cancelled: bool
    label: str
    counted: bool

    def cancel(self) -> None:
        """Prevent this event from firing; safe to call more than once."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = self.label or getattr(self.fn, "__name__", repr(self.fn))
        return f"<Event t={self.time} #{self.seq} {name}{state}>"


#: A timestamp's bucket: the event itself while the slot holds exactly
#: one, promoted to a FIFO list on the first same-instant collision.
Bucket = Union[Event, List[Event]]


class EventQueue:
    """Hashed timer wheel: per-timestamp buckets + a sorted time index.

    Invariants: the index region ``_times[_head:]`` holds exactly the
    keys of ``_buckets`` (no duplicates, no stale entries; ascending
    whenever ``_dirty`` is false), every list bucket in the dict is
    non-empty, and a timestamp leaves the index only when its bucket
    leaves the dict.  ``_times[:_head]`` is consumed garbage, compacted
    away when the index empties or re-sorts.
    """

    __slots__ = ("_buckets", "_times", "_head", "_dirty", "_seq", "_live")

    def __init__(self) -> None:
        self._buckets: Dict[Time, Bucket] = {}
        self._times: List[Time] = []
        self._head = 0
        self._dirty = False
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def _discount(self, event: Event) -> None:
        """Remove ``event`` from the live count exactly once."""
        if not event.counted:
            event.counted = True
            self._live -= 1

    # ------------------------------------------------------------------
    # Timestamp index.  ``Simulator.schedule``/``Simulator.run`` inline
    # these three helpers on their fast paths; keep them in lockstep.
    # ------------------------------------------------------------------
    def _add_time(self, time: Time) -> None:
        """Admit a newly-occupied timestamp to the index."""
        times = self._times
        if times and time < times[-1]:
            if len(times) - self._head <= INSERTION_WINDOW:
                insort(times, time, self._head)
            else:
                times.append(time)
                self._dirty = True
        else:
            times.append(time)

    def _next_time(self) -> Optional[Time]:
        """The earliest occupied timestamp, or None; sorts if deferred."""
        times = self._times
        head = self._head
        if head >= len(times):
            return None
        if self._dirty:
            if head:
                del times[:head]
                self._head = head = 0
            times.sort()
            self._dirty = False
        return times[head]

    def _pop_time(self) -> None:
        """Consume the head timestamp (its bucket is already gone)."""
        head = self._head + 1
        if head >= len(self._times):
            self._times.clear()
            self._head = 0
        else:
            self._head = head

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: Time,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` and return the event."""
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.label = label
        event.counted = False
        # setdefault probes the slot once: on a vacant slot it stores the
        # bare event and hands it straight back.
        bucket = self._buckets.setdefault(time, event)
        if bucket is event:
            self._add_time(time)
        elif isinstance(bucket, list):
            bucket.append(event)
        else:
            self._buckets[time] = [bucket, event]
        self._live += 1
        return event

    def requeue(self, event: Event) -> None:
        """Reinsert a popped-but-unfired event (engine stop mid-batch).

        The event re-enters its timestamp's bucket in sequence order:
        callbacks that already ran from the same batch may have pushed
        *new* events at this timestamp (delay-0 schedules), and those
        carry larger sequence numbers, so the requeued event belongs in
        front of them.  Unfired batch members never left the live count
        (only the batch head is counted at pop), so the count is
        restored only for an event that was already retired (a
        defensive case no engine path currently produces).
        """
        bucket = self._buckets.setdefault(event.time, event)
        if bucket is event:
            self._add_time(event.time)
        else:
            seq = event.seq
            if not isinstance(bucket, list):
                pair = [event, bucket] if bucket.seq > seq else [bucket, event]
                self._buckets[event.time] = pair
            else:
                index = len(bucket)
                for position, existing in enumerate(bucket):
                    if existing.seq > seq:
                        index = position
                        break
                bucket.insert(index, event)
        if not event.cancelled and event.counted:
            event.counted = False
            self._live += 1

    def retire(self, event: Event) -> None:
        """Remove a popped batch member from the live count (exactly
        once).  The engine calls this as it reaches each member of a
        ``pop_batch`` batch — fired or found cancelled — so the count
        stays exact at every callback boundary."""
        self._discount(event)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None when empty.

        Cancelled events are discarded transparently.
        """
        buckets = self._buckets
        while True:
            head_time = self._next_time()
            if head_time is None:
                return None
            bucket = buckets[head_time]
            if not isinstance(bucket, list):
                self._pop_time()
                del buckets[head_time]
                self._discount(bucket)
                if not bucket.cancelled:
                    return bucket
                continue
            while bucket:
                event = bucket.pop(0)
                self._discount(event)
                if not bucket:
                    self._pop_time()
                    del buckets[head_time]
                if not event.cancelled:
                    return event
            # The emptied bucket was removed above; rescan the index.

    def pop_batch(
        self, until: Optional[Time] = None
    ) -> Union[Event, List[Event], None]:
        """Drain the earliest pending timestamp, provided it is <=
        ``until``; return its events.

        Returns the bare :class:`Event` when the timestamp held exactly
        one (the engine's fast path), the bucket list itself when it
        held several (compacted in place past cancelled members, so the
        common all-live batch allocates nothing), or None when the
        queue is empty or the next event lies beyond the horizon.
        Because no callbacks run while the batch is collected, and
        anything scheduled *by* a batch callback at the same instant
        lands in a fresh bucket with strictly larger sequence numbers,
        firing the returned events in order preserves exact (time, seq)
        order.

        Only the head leaves the live count here (it fires before any
        callback can observe the queue).  Later members stay counted —
        they are still pending from the caller's perspective — and the
        engine retires them one by one via :meth:`retire` as it fires or
        skips them.
        """
        buckets = self._buckets
        while True:
            head_time = self._next_time()
            if head_time is None:
                return None
            bucket = buckets[head_time]
            if not isinstance(bucket, list):
                # Lazily discard a cancelled singleton even beyond the
                # horizon, mirroring the leading-cancelled strip below.
                if bucket.cancelled:
                    self._pop_time()
                    del buckets[head_time]
                    self._discount(bucket)
                    continue
                if until is not None and head_time > until:
                    return None
                self._pop_time()
                del buckets[head_time]
                bucket.counted = True
                self._live -= 1
                return bucket
            # Lazily discard cancelled events at the front of the bucket.
            index = 0
            size = len(bucket)
            while index < size and bucket[index].cancelled:
                self._discount(bucket[index])
                index += 1
            if index == size:
                self._pop_time()
                del buckets[head_time]
                continue
            if until is not None and head_time > until:
                if index:
                    del bucket[:index]
                return None
            self._pop_time()
            del buckets[head_time]
            if index:
                del bucket[:index]
                size -= index
            head = bucket[0]
            # A live bucket entry is never pre-counted (requeue resets
            # the flag), so the exactly-once bookkeeping inlines to two
            # ops.
            head.counted = True
            self._live -= 1
            if size > 1:
                # Compact cancelled members out of the tail in place.
                write = 1
                for read in range(1, size):
                    event = bucket[read]
                    if event.cancelled:
                        self._discount(event)
                    else:
                        if write != read:
                            bucket[write] = event
                        write += 1
                if write != size:
                    del bucket[write:]
            return bucket

    def pop_ready(self, until: Optional[Time] = None) -> Optional[List[Event]]:
        """List-only veneer over :meth:`pop_batch` (historical contract;
        tests and tooling use it — the engine calls ``pop_batch``)."""
        batch = self.pop_batch(until)
        if batch is None:
            return None
        if isinstance(batch, Event):
            return [batch]
        return batch

    def peek_time(self) -> Optional[Time]:
        """Return the time of the next live event without removing it."""
        buckets = self._buckets
        while True:
            head_time = self._next_time()
            if head_time is None:
                return None
            bucket = buckets[head_time]
            if not isinstance(bucket, list):
                if not bucket.cancelled:
                    return head_time
                self._pop_time()
                del buckets[head_time]
                self._discount(bucket)
                continue
            index = 0
            size = len(bucket)
            while index < size and bucket[index].cancelled:
                self._discount(bucket[index])
                index += 1
            if index == size:
                self._pop_time()
                del buckets[head_time]
                continue
            if index:
                del bucket[:index]
            return head_time

    def note_cancelled(self, event: Event) -> None:
        """Account for one externally-cancelled event (keeps len() honest).

        Accounting is tracked on the event itself, so the call is exact
        even when the lazy-deletion machinery already discarded the
        event from its bucket (or a batch pop already counted it) —
        double-decrements are impossible by construction.
        """
        if event.cancelled:
            self._discount(event)
