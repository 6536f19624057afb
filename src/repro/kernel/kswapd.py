"""The kernel swap daemon (*kswapd*).

kswapd wakes when free memory falls below the low watermark and
reclaims in the background until the high watermark is restored (§2).
It runs at the **same scheduling priority as foreground threads** —
the paper found 77.9% of Firefox threads share its priority — so under
sustained pressure the video client must fair-share the CPU with a
daemon that is scanning and compressing pages continuously (§5: kswapd
became the single most-running thread, 2.3 s → 22 s).
"""

from __future__ import annotations

from ..sched.scheduler import SchedClass, Scheduler, Thread
from ..sim.bus import KSWAPD_SLEEP, KSWAPD_WAKE
from ..sim.clock import millis
from ..sim.engine import Simulator
from .manager import MemoryManager
from .reclaim import build_plan

#: Pages per reclaim batch (2 MiB) — one loop iteration of balance_pgdat.
BATCH_PAGES = 512
#: Back-off delay when a batch found nothing reclaimable.
EMPTY_RETRY_DELAY = millis(40)


class Kswapd:
    """Background reclaim daemon."""

    def __init__(self, sim: Simulator, scheduler: Scheduler, manager: MemoryManager) -> None:
        self.sim = sim
        self.manager = manager
        self.thread: Thread = scheduler.spawn("kswapd0", SchedClass.FOREGROUND)
        self.active = False
        manager.kswapd = self

    def wake(self) -> None:
        """Wake the daemon if free memory is below the low watermark."""
        if self.active:
            return
        if not self.manager.state.below_low:
            return
        self.active = True
        self.manager.vmstat.kswapd_wakeups += 1
        if KSWAPD_WAKE in self.sim.topics:
            self.sim.emit(KSWAPD_WAKE)
        self._balance()

    def _balance(self) -> None:
        state = self.manager.state
        if state.above_high:
            self.active = False
            if KSWAPD_SLEEP in self.sim.topics:
                self.sim.emit(KSWAPD_SLEEP)
            return
        plan = build_plan(
            self.manager.table.alive,
            BATCH_PAGES,
            allow_hot=True,
            efficiency=self.manager.current_hot_efficiency(),
        )
        self.manager.monitor.note_kswapd_activity()
        if plan.empty:
            # Nothing reclaimable at all: record a fruitless scan so the
            # pressure metric rises, poke lmkd, and retry shortly.
            self.manager.vmstat.record_scan(self.sim.now, BATCH_PAGES, 0)
            if self.manager.lmkd is not None:
                self.manager.lmkd.check()
            self.sim.schedule(EMPTY_RETRY_DELAY, self._balance, label="kswapd:retry")
            return

        def batch_done() -> None:
            # Pages free only after the scan/compress work is paid for:
            # reclaim bandwidth is CPU-bound, so allocation bursts can
            # outrun kswapd and fall into direct reclaim — the stall
            # mechanism behind §5.  (apply_plan clamps every movement to
            # what still exists, so a direct reclaim racing this batch
            # cannot double-free.)
            self.manager.apply_plan(plan)
            if self.manager.lmkd is not None:
                self.manager.lmkd.check()
            self._balance()

        self.thread.post(
            max(plan.cpu_cost_us, 1.0),
            on_complete=batch_done,
            label="kswapd:batch",
        )
