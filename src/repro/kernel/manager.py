"""The memory manager: allocation, direct reclaim, faults, and kills.

This object is the meeting point of every mechanism §2 of the paper
describes.  Allocations take the fast path while free memory is above
the min watermark; below it they enter **direct reclaim**, paying scan
and writeback costs in the allocating thread — "this can cause an extra
I/O wait in any thread, including the foreground application's main UI
thread".  Touching a working set whose pages were reclaimed triggers
**refaults** (zRAM decompression or disk reads), the thrashing loop.
Process **kills** free everything the victim held and shrink the cached
LRU list, escalating the OnTrimMemory level.

Page movements are applied synchronously when a plan is built (the
event loop is single-threaded, so build+apply is atomic and nothing is
double-selected); the CPU and I/O *costs* of those movements are then
charged to the appropriate thread.  Timing therefore slightly leads
cost, but contention — the phenomenon under study — is preserved.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sched.scheduler import Scheduler, Thread
from ..sim.bus import ALLOC_STALL, MEMORY_PLAN, PROCESS_KILL
from ..sim.clock import Time, millis
from ..sim.engine import Simulator
from .memory import MemoryState
from .mmcqd import Mmcqd
from .pressure import PressureMonitor, PressureThresholds
from .process import MemProcess, ProcessTable
from .reclaim import ReclaimPlan, build_plan, hot_efficiency
from .vmstat import VmStat

#: Reference-us CPU cost to decompress one page from zRAM (minor fault).
DECOMPRESS_COST_US = 18.0
#: Floor (pages) for one direct-reclaim round, 4 MiB.
DIRECT_RECLAIM_BATCH = 1024
#: How long a stalled allocation waits before escalating to an OOM kill.
ALLOC_STALL_TIMEOUT: Time = millis(600)


class MemoryManager:
    """Coordinates the memory state, processes, and reclaim daemons."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        state: MemoryState,
        mmcqd: Mmcqd,
        thresholds: PressureThresholds = PressureThresholds(),
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.state = state
        self.mmcqd = mmcqd
        self.table = ProcessTable()
        self.vmstat = VmStat()
        self.monitor = PressureMonitor(sim, self.table, thresholds)
        self.kswapd = None  # attached by Kswapd.__init__
        self.lmkd = None    # attached by Lmkd.__init__
        self._rng = sim.random.stream("memory.faults")
        self._memory_waiters: List[Thread] = []

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn_process(
        self,
        name: str,
        oom_adj: int,
        dirty_fraction: float = 0.15,
    ) -> MemProcess:
        """Create and register a process (no memory, no threads yet)."""
        return self.table.add(MemProcess(name, oom_adj, dirty_fraction))

    def spawn_thread(self, process: MemProcess, name: str, sched_class) -> Thread:
        """Create a scheduler thread attached to ``process``."""
        thread = self.scheduler.spawn(name, sched_class, process=process)
        process.threads.append(thread)
        return thread

    def seed_memory(
        self,
        process: MemProcess,
        pages: int,
        file_share: float = 0.4,
        hot_fraction: float = 0.5,
    ) -> None:
        """Instantly populate a process's memory (initial device state).

        Raises if the free pool cannot cover it — initial populations
        must fit in RAM by construction.
        """
        file_pages = round(pages * file_share)
        anon_pages = pages - file_pages
        self._grant(process, anon_pages, "anon", hot_fraction)
        self._grant(process, file_pages, "file", hot_fraction)

    def kill_process(self, process: MemProcess, reason: str) -> None:
        """Kill ``process``: free its memory, kill its threads, notify."""
        if not process.alive:
            return
        process.alive = False
        pools = process.pools
        # Anonymous pages go straight back to the free pool.
        self.state.free_anon(pools.resident_anon)
        # File pages: clean ones freed, dirty share freed too (the kernel
        # truncates dirty cache of a dead process's private mappings).
        file_pages = pools.resident_file
        dirty = min(
            round(file_pages * self._dirty_share()), self.state.file_dirty
        )
        clean = file_pages - dirty
        if clean > self.state.file_clean:
            dirty += clean - self.state.file_clean
            clean = self.state.file_clean
        self.state.free_file(clean, dirty)
        self.state.discard_zram(pools.swapped_hot + pools.swapped_cold)
        pools.file_hot = pools.file_cold = 0
        pools.anon_hot = pools.anon_cold = 0
        pools.swapped_hot = pools.swapped_cold = 0
        pools.evicted_hot = pools.evicted_cold = 0
        for thread in process.threads:
            self.scheduler.kill(thread)
        if reason == "lmkd":
            self.vmstat.lmkd_kills += 1
        elif reason == "oom":
            self.vmstat.oom_kills += 1
        if PROCESS_KILL in self.sim.topics:
            self.sim.emit(PROCESS_KILL, process=process, reason=reason)
        for callback in list(process.on_kill):
            callback(reason)
        self.monitor.update()
        self._wake_memory_waiters()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def request_pages(
        self,
        process: MemProcess,
        thread: Optional[Thread],
        pages: int,
        kind: str = "anon",
        hot_fraction: float = 0.7,
        on_granted: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Allocate ``pages`` for ``process``.

        Returns True when granted synchronously (fast path).  On the
        slow path the allocating ``thread`` performs direct reclaim —
        paying CPU and possibly blocking on I/O — and ``on_granted``
        fires once the allocation succeeds.  If the process dies while
        stalled, the grant never happens.
        """
        if pages <= 0:
            if on_granted is not None:
                on_granted()
            return True
        watermark = self.state.watermarks.min_pages
        if self.state.free - pages >= watermark:
            self._grant(process, pages, kind, hot_fraction)
            self._maybe_wake_kswapd()
            if on_granted is not None:
                on_granted()
            return True
        if thread is None:
            raise RuntimeError(
                f"allocation of {pages} pages for {process.name} stalled "
                "with no thread to perform direct reclaim"
            )
        self.vmstat.allocstall += 1
        if ALLOC_STALL in self.sim.topics:
            self.sim.emit(ALLOC_STALL, process=process, pages=pages)
        self._direct_reclaim(process, thread, pages, kind, hot_fraction, on_granted)
        return False

    def release_pages(self, process: MemProcess, pages: int, kind: str = "anon") -> int:
        """Free up to ``pages`` of a process's resident memory (an app
        responding to OnTrimMemory).  Cold pages go first.  Returns the
        number actually released."""
        pools = process.pools
        released = 0
        if kind == "anon":
            for attr in ("anon_cold", "anon_hot"):
                take = min(getattr(pools, attr), pages - released)
                if take > 0:
                    setattr(pools, attr, getattr(pools, attr) - take)
                    self.state.free_anon(take)
                    released += take
        elif kind == "file":
            for attr in ("file_cold", "file_hot"):
                take = min(getattr(pools, attr), pages - released)
                if take > 0:
                    setattr(pools, attr, getattr(pools, attr) - take)
                    dirty = min(
                        round(take * self._dirty_share()), self.state.file_dirty
                    )
                    clean = take - dirty
                    if clean > self.state.file_clean:
                        dirty += clean - self.state.file_clean
                        clean = self.state.file_clean
                    self.state.free_file(clean, dirty)
                    released += take
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return released

    def _grant(
        self, process: MemProcess, pages: int, kind: str, hot_fraction: float
    ) -> None:
        if pages <= 0:
            return
        hot = round(pages * hot_fraction)
        cold = pages - hot
        pools = process.pools
        if kind == "anon":
            self.state.alloc_anon(pages)
            pools.anon_hot += hot
            pools.anon_cold += cold
        elif kind == "file":
            dirty = round(pages * process.dirty_fraction)
            self.state.alloc_file(pages - dirty, dirty=False)
            if dirty > 0:
                self.state.alloc_file(dirty, dirty=True)
            pools.file_hot += hot
            pools.file_cold += cold
        else:
            raise ValueError(f"unknown kind {kind!r}")

    # ------------------------------------------------------------------
    # Direct reclaim (allocation slow path)
    # ------------------------------------------------------------------
    def _direct_reclaim(
        self,
        process: MemProcess,
        thread: Thread,
        pages: int,
        kind: str,
        hot_fraction: float,
        on_granted: Optional[Callable[[], None]],
        deadline: Optional[Time] = None,
    ) -> None:
        if deadline is None:
            deadline = self.sim.now + ALLOC_STALL_TIMEOUT
        shortfall = pages + self.state.watermarks.min_pages - self.state.free
        target = max(shortfall, DIRECT_RECLAIM_BATCH)
        plan = build_plan(
            self.table.alive, target, allow_hot=True, protect=(process,),
            efficiency=self.current_hot_efficiency(),
        )
        self.apply_plan(plan)
        self.monitor.note_kswapd_activity()
        if self.lmkd is not None:
            self.lmkd.check()

        def retry() -> None:
            if not process.alive:
                return
            if self.state.free - pages >= self.state.watermarks.min_pages:
                self._grant(process, pages, kind, hot_fraction)
                self._maybe_wake_kswapd()
                if on_granted is not None:
                    on_granted()
            elif self.sim.now >= deadline:
                self._oom_kill(requester=process)
                self._direct_reclaim(
                    process, thread, pages, kind, hot_fraction, on_granted,
                    deadline=self.sim.now + ALLOC_STALL_TIMEOUT,
                )
            else:
                self._direct_reclaim(
                    process, thread, pages, kind, hot_fraction, on_granted, deadline
                )

        def after_cpu() -> None:
            if not process.alive:
                return
            if self.state.free - pages >= self.state.watermarks.min_pages:
                retry()
                return
            # Not enough yet: wait for writeback/kills to free memory.
            self._block_until_memory(thread, retry)

        cost = plan.cpu_cost_us
        if cost >= 1.0:
            thread.post(cost, on_complete=after_cpu, label="direct_reclaim")
        else:
            after_cpu()

    def _block_until_memory(self, thread: Thread, resume: Callable[[], None]) -> None:
        """Park ``thread`` in uninterruptible sleep until memory frees."""

        def start() -> None:
            self._memory_waiters.append(thread)
            # Safety valve: if nothing frees memory shortly, force an
            # OOM kill so the system makes progress (kernel OOM killer).
            self.sim.schedule(
                ALLOC_STALL_TIMEOUT, self._stall_timeout, thread,
                label="allocstall:timeout",
            )

        thread.post_io(start, on_complete=resume, label="allocstall")

    def _stall_timeout(self, thread: Thread) -> None:
        if thread not in self._memory_waiters or thread.dead:
            return
        self._oom_kill(requester=thread.process)
        self._wake_memory_waiters()

    def _wake_memory_waiters(self) -> None:
        waiters, self._memory_waiters = self._memory_waiters, []
        for thread in waiters:
            if not thread.dead:
                self.scheduler.io_complete(thread)

    def _oom_kill(self, requester: Optional[MemProcess]) -> None:
        """Kernel OOM killer: kill the largest-footprint killable process."""
        candidates = [
            p
            for p in self.table.alive
            if p.oom_adj >= 0 and p is not requester
        ]
        if not candidates:
            candidates = [p for p in self.table.alive if p.oom_adj >= 0]
        if not candidates:
            return
        # Ties on (oom_adj, pss_pages) break toward the earliest-spawned
        # candidate — explicitly, so replay stays bit-identical instead
        # of leaning on max()'s first-maximal behavior.
        victim = max(
            enumerate(candidates),
            key=lambda item: (item[1].oom_adj, item[1].pss_pages, -item[0]),
        )[1]
        self.kill_process(victim, "oom")

    # ------------------------------------------------------------------
    # Reclaim plan application
    # ------------------------------------------------------------------
    def current_hot_efficiency(self) -> float:
        """Hot-page reclaim probability at the current scarcity level."""
        wm = self.state.watermarks
        return hot_efficiency(self.state.free, wm.min_pages, wm.high_pages)

    def _dirty_share(self) -> float:
        cached = self.state.cached
        if cached <= 0:
            return 0.0
        return self.state.file_dirty / cached

    def apply_plan(self, plan: ReclaimPlan) -> Tuple[int, int]:
        """Execute a reclaim plan's page movements.

        Returns ``(freed_now, writeback_pages)``.  Writeback pages free
        asynchronously when their I/O completes.
        """
        freed_now = 0

        # Anonymous pages: compress into zRAM (bounded by its disksize —
        # once zRAM is full, anon memory becomes unreclaimable, scans
        # keep failing, and the pressure metric climbs).
        state = self.state
        for process, from_hot, n in plan.anon_taken:
            pools = process.pools
            # state.zram_capacity_left inlined (zram_stored moves every
            # iteration via swap_out, so it must be re-read each time).
            capacity_left = state.zram_disksize - state.zram_stored
            if capacity_left < 0:
                capacity_left = 0
            if n > capacity_left:
                n = capacity_left
            if from_hot:
                n = min(n, pools.anon_hot)
                pools.anon_hot -= n
                pools.swapped_hot += n
            else:
                n = min(n, pools.anon_cold)
                pools.anon_cold -= n
                pools.swapped_cold += n
            if n > 0:
                freed_now += state.swap_out(n)
                self.vmstat.pswpout += n

        # File pages: split clean (drop now) versus dirty (writeback).
        dirty_scheduled = 0
        total_file = 0
        for process, from_hot, n in plan.file_taken:
            pools = process.pools
            if from_hot:
                n = min(n, pools.file_hot)
                pools.file_hot -= n
                pools.evicted_hot += n
            else:
                n = min(n, pools.file_cold)
                pools.file_cold -= n
                pools.evicted_cold += n
            total_file += n
        if total_file > 0:
            dirty = min(round(total_file * self._dirty_share()), self.state.file_dirty)
            clean = total_file - dirty
            if clean > self.state.file_clean:
                dirty += clean - self.state.file_clean
                clean = self.state.file_clean
            if clean > 0:
                self.state.drop_clean(clean)
                freed_now += clean
            if dirty > 0:
                self.state.start_writeback(dirty)
                dirty_scheduled = dirty
                self.mmcqd.submit_write(
                    dirty, on_complete=lambda n=dirty: self._writeback_done(n)
                )

        self.vmstat.record_scan(self.sim.now, plan.scanned, freed_now)
        if MEMORY_PLAN in self.sim.topics:
            self.sim.emit(
                MEMORY_PLAN,
                manager=self,
                freed=freed_now,
                writeback=dirty_scheduled,
            )
        if freed_now > 0:
            self._wake_memory_waiters()
        return freed_now, dirty_scheduled

    def _writeback_done(self, pages: int) -> None:
        self.state.complete_writeback(pages)
        self.vmstat.pgwriteback += pages
        self.vmstat.record_scan(self.sim.now, 0, pages)
        self._wake_memory_waiters()

    # ------------------------------------------------------------------
    # Working-set touches and refaults
    # ------------------------------------------------------------------
    def touch(
        self,
        process: MemProcess,
        thread: Thread,
        pages: int,
        on_done: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Touch ``pages`` random working-set pages of ``process``.

        Pages that were reclaimed refault: zRAM-backed pages cost CPU
        (decompression) in ``thread``; disk-backed pages block ``thread``
        on an mmcqd read.  Returns True when no fault occurred (on_done,
        if given, has already been called); False when fault servicing
        was scheduled and ``on_done`` will fire later.
        """
        pools = process.pools
        hot_total = pools.hot_total
        missing = pools.hot_missing
        if hot_total <= 0 or missing <= 0 or pages <= 0:
            if on_done is not None:
                on_done()
            return True
        expected = pages * (missing / hot_total)
        faults = int(expected)
        if self._rng.random() < expected - faults:
            faults += 1
        faults = min(faults, missing)
        if faults <= 0:
            if on_done is not None:
                on_done()
            return True

        swap_faults = min(
            round(faults * (pools.swapped_hot / missing)), pools.swapped_hot
        )
        disk_faults = min(faults - swap_faults, pools.evicted_hot)
        swap_faults = min(faults - disk_faults, pools.swapped_hot)
        self._service_faults(process, thread, swap_faults, disk_faults, on_done)
        return False

    def _service_faults(
        self,
        process: MemProcess,
        thread: Thread,
        swap_faults: int,
        disk_faults: int,
        on_done: Optional[Callable[[], None]],
    ) -> None:
        pools = process.pools
        needed_free = disk_faults + swap_faults  # upper bound on new pages
        if self.state.free - needed_free < self.state.watermarks.min_pages:
            # Direct reclaim in the fault path: the thrashing feedback
            # loop.  Cost is charged to the faulting thread below.
            shortfall = (
                needed_free + self.state.watermarks.min_pages - self.state.free
            )
            plan = build_plan(
                self.table.alive,
                max(shortfall, DIRECT_RECLAIM_BATCH),
                allow_hot=True,
                protect=(process,),
                efficiency=self.current_hot_efficiency(),
            )
            self.apply_plan(plan)
            self.monitor.note_kswapd_activity()
            if self.lmkd is not None:
                self.lmkd.check()
            if plan.cpu_cost_us >= 1.0:
                thread.post(plan.cpu_cost_us, label="fault:direct_reclaim")
            self.vmstat.allocstall += 1

        # Cap faults by what memory now permits; unserviceable faults are
        # retried on the next touch.
        headroom = max(0, self.state.free - self.state.watermarks.min_pages // 2)
        disk_faults = min(disk_faults, headroom)
        headroom -= disk_faults
        swap_faults = min(swap_faults, headroom, self.state.zram_stored)

        if swap_faults > 0:
            pools.swapped_hot -= swap_faults
            pools.anon_hot += swap_faults
            self.state.swap_in(swap_faults)
            self.vmstat.pswpin += swap_faults
            self.vmstat.pgfault += swap_faults
            thread.post(
                DECOMPRESS_COST_US * swap_faults, label="fault:zram"
            )
        if disk_faults > 0:
            pools.evicted_hot -= disk_faults
            pools.file_hot += disk_faults
            self.state.alloc_file(disk_faults, dirty=False)
            self.vmstat.pgmajfault += disk_faults

            def issue(n=disk_faults) -> None:
                self.mmcqd.submit_read(
                    n, on_complete=lambda: self.scheduler.io_complete(thread)
                )

            thread.post_io(issue, label="fault:disk")
        if on_done is not None:
            if swap_faults > 0 or disk_faults > 0:
                # Fire after the last queued fault-service item.
                thread.post(1.0, on_complete=on_done, label="fault:done")
            else:
                on_done()

    # ------------------------------------------------------------------
    def _maybe_wake_kswapd(self) -> None:
        if self.state.below_low and self.kswapd is not None:
            self.kswapd.wake()

    # Introspection used by tests ---------------------------------------
    def check_consistency(self) -> None:
        """Verify per-process pools reconcile with the global state."""
        self.state.check()
        total_anon = sum(p.pools.resident_anon for p in self.table.alive)
        total_file = sum(p.pools.resident_file for p in self.table.alive)
        total_swapped = sum(
            p.pools.swapped_hot + p.pools.swapped_cold for p in self.table.alive
        )
        assert total_anon == self.state.anon, (
            f"anon mismatch: procs={total_anon} state={self.state.anon}"
        )
        assert total_file == self.state.cached, (
            f"file mismatch: procs={total_file} state={self.state.cached}"
        )
        assert total_swapped == self.state.zram_stored, (
            f"zram mismatch: procs={total_swapped} state={self.state.zram_stored}"
        )
