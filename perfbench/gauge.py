"""Host-speed gauge: timings normalised to a reference host speed.

The machines this benchmark runs on are shared, and the speed of a core
drifts by tens of percent over seconds to minutes with whatever else is
running beside it.  Measured alone, a wall-clock time then says as much
about the neighbours as about the program.

A :class:`Meter` splits each timed operation into segments at natural
job boundaries (one per finished session, trace, arena job or cohort)
and, between segments, times a fixed pure-Python calibration kernel.
The kernel's own time is never part of a segment.  Each segment is then
rescaled by how fast the kernel ran around it::

    normalised = segment_seconds * REFERENCE_S / local_kernel_seconds

where ``local_kernel_seconds`` is the median of the kernel timings
nearest the segment.  The result is in seconds at a reference speed at
which one kernel run takes :data:`REFERENCE_S`.  The kernel is part of
the benchmark, so a change to the program cannot move it.  Its mix (a
cache-missing pointer chase, dict updates, zlib compression) was chosen
because, run interleaved with the workloads on a shared 2-core host, it
tracked their speed best among the candidates tried; a kernel of pure
interpreter arithmetic swung further than the workloads did.
"""

from __future__ import annotations

import gc
import statistics
import time
import zlib
from typing import Any, Callable, List, Tuple

#: The reference speed: seconds one :func:`kernel` call takes on it.
REFERENCE_S = 0.002
#: Kernel timings on each side of a segment that set its local speed.
WINDOW = 5


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float) -> None:
        self.value = value
        self.next: "_Node" = self


def _ring(size: int = 100_000) -> _Node:
    """Objects linked in a scattered order, so walking the ring misses
    the CPU caches the way the simulator's object graph does."""
    nodes = [_Node(float(i)) for i in range(size)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7919 + 13) % size]
    return nodes[0]


_BYTES = bytes((i * 2654435761 >> 7) % 50 for i in range(60_000))


def kernel(ring: _Node) -> float:
    """A fixed unit of work (about 2 ms on the reference speed): a
    pointer chase through ``ring``, dict churn, and zlib compression of
    a fixed buffer."""
    node, acc = ring, 0.0
    for _ in range(18_000):
        acc += node.value
        node = node.next
    table: dict = {}
    for i in range(9000):
        table[(i * 31) % 997] = i
    for _ in range(3):
        acc += len(zlib.compress(_BYTES, 6))
    return acc + len(table)


class Meter:
    """Times operations as segments separated by kernel timings.

    ``op()`` opens an operation; ``begin()`` and ``end()`` bracket one
    segment of it, and ``end()`` times the kernel right after.
    ``after(fn)`` wraps a job-completion hook so that each call ends the
    current segment and begins the next.  ``raw(op)`` is an operation's
    measured seconds and ``normalised(op)`` the same at the reference
    speed.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 calibrate: bool = True) -> None:
        self.clock = clock
        #: The kernel's working set; ``calibrate=False`` (warm-up calls)
        #: skips building it and timing the kernel.
        self._ring = _ring() if calibrate else None
        #: Kernel timings, in the order taken.
        self.kernel_s: List[float] = []
        #: Per operation: (segment seconds, index of the kernel timing
        #: taken right after the segment).
        self.ops: List[List[Tuple[float, int]]] = []
        self._start = 0.0

    def op(self) -> int:
        self.ops.append([])
        return len(self.ops) - 1

    def begin(self) -> None:
        self._start = self.clock()

    def end(self) -> None:
        seconds = self.clock() - self._start
        self.ops[-1].append((seconds, len(self.kernel_s)))
        if self._ring is not None:
            self.kernel_s.append(self.time_kernel())

    def time_kernel(self) -> float:
        """Seconds one kernel call takes now (garbage collector paused)."""
        assert self._ring is not None
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The untimed first call brings the ring back into the CPU
            # caches, so the timing does not depend on how much of it the
            # program evicted since the last one.
            kernel(self._ring)
            t0 = self.clock()
            kernel(self._ring)
            return self.clock() - t0
        finally:
            if enabled:
                gc.enable()

    def after(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` followed by a segment boundary (for job hooks)."""
        def call(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            self.end()
            self.begin()
            return result
        return call

    # ------------------------------------------------------------------
    def raw(self, op: int) -> float:
        return sum(seconds for seconds, _ in self.ops[op])

    def local_kernel_s(self, index: int) -> float:
        """Median kernel time over the timings nearest ``index``."""
        lo = max(0, index - WINDOW)
        return statistics.median(self.kernel_s[lo:index + WINDOW + 1])

    def segments(self, op: int) -> List[float]:
        """An operation's segments, each at the reference speed."""
        return [
            seconds * REFERENCE_S / self.local_kernel_s(index)
            for seconds, index in self.ops[op]
        ]

    def normalised(self, op: int) -> float:
        return sum(self.segments(op))

    def median_of(self, ops: List[int], normalise: bool = True) -> float:
        """Seconds of a repeated operation: the sum over its segments of
        each segment's median across ``ops``.  A slowdown that hits one
        repetition's segment is then outvoted by the others; operations
        whose segments do not line up fall back to the median of their
        totals.  ``normalise=False`` keeps measured seconds."""
        rows = [
            self.segments(op) if normalise else [seconds for seconds, _ in self.ops[op]]
            for op in ops
        ]
        if len({len(row) for row in rows}) != 1:
            return statistics.median(sum(row) for row in rows)
        return sum(statistics.median(column) for column in zip(*rows))

    def host_speed(self) -> float:
        """Reference kernel time over the median measured one (>1: faster
        than the reference)."""
        return REFERENCE_S / statistics.median(self.kernel_s) if self.kernel_s else float("nan")
