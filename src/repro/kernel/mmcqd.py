"""The storage I/O queue daemon (*mmcqd*).

mmcqd manages queued I/O operations on eMMC storage.  Two properties
matter for the paper's findings (§2, §5):

* it runs in a **strictly higher scheduling class** than foreground
  processes, so every burst of I/O preempts video threads; and
* its CPU time grows with I/O volume — under thrashing, refaults and
  writeback make it one of the busiest threads on the device (the paper
  measured 0.4 s → 4.6 s of running time from Normal to Moderate).

Requests are served FIFO.  Each request costs mmcqd CPU time (queue and
command management, interrupt handling) and then waits out the device
service time before the completion callback fires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from ..sched.scheduler import SchedClass, Scheduler, Thread
from ..sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - avoids a package-import cycle
    from ..device.storage import StorageDevice

#: CPU cost (reference us) to drive one request through the queue.
REQUEST_CPU_BASE_US = 150.0
#: Additional CPU per 4 KiB page moved (scatter/gather + completion IRQ).
REQUEST_CPU_PER_PAGE_US = 12.0


@dataclass
class IoRequest:
    kind: str                       # "read" | "write"
    pages: int
    on_complete: Optional[Callable[[], None]]


class Mmcqd:
    """The mmcqd kernel thread plus its request queue."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        storage: "StorageDevice",
    ) -> None:
        self.sim = sim
        self.storage = storage
        self.thread: Thread = scheduler.spawn("mmcqd", SchedClass.IO, process=None)
        self._queue: Deque[IoRequest] = deque()
        self._busy = False
        self.completed_requests = 0

    # ------------------------------------------------------------------
    def submit_read(self, pages: int, on_complete: Optional[Callable[[], None]] = None) -> None:
        """Queue a read of ``pages`` pages (e.g. a major-fault refault)."""
        self._submit(IoRequest("read", max(1, pages), on_complete))

    def submit_write(self, pages: int, on_complete: Optional[Callable[[], None]] = None) -> None:
        """Queue a writeback of ``pages`` dirty pages."""
        self._submit(IoRequest("write", max(1, pages), on_complete))

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    # ------------------------------------------------------------------
    def _submit(self, request: IoRequest) -> None:
        self._queue.append(request)
        if not self._busy:
            self._busy = True
            self._issue_next()

    def _issue_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        request = self._queue.popleft()
        cpu_us = REQUEST_CPU_BASE_US + REQUEST_CPU_PER_PAGE_US * request.pages
        self.thread.post(
            cpu_us,
            on_complete=lambda: self._start_transfer(request),
            label=f"mmcqd:{request.kind}",
        )

    def _start_transfer(self, request: IoRequest) -> None:
        if request.kind == "read":
            service = self.storage.read_time(request.pages)
        else:
            service = self.storage.write_time(request.pages)
        self.sim.schedule(service, self._finish, request, label="mmcqd:transfer")

    def _finish(self, request: IoRequest) -> None:
        self.completed_requests += 1
        if "io.complete" in self.sim.topics:
            self.sim.emit("io.complete", kind=request.kind, pages=request.pages)
        if request.on_complete is not None:
            request.on_complete()
        self._issue_next()
