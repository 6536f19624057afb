"""The low-memory killer daemon (*lmkd*).

lmkd converts the kernel's reclaim statistics into the pressure metric
``P = (1 - R/S) * 100`` (§2) and kills the process with the highest
oom_adj among those eligible at the current pressure.  The eligibility
staircase follows the paper: at ``60 < P < 95`` only high-oom_adj
(cached/background/service) processes may be killed; at ``P >= 95`` the
foreground app itself becomes eligible — which is how the video client
ends up crashing under Critical pressure (Tables 2 and 3, Figure 14).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sched.scheduler import SchedClass, Scheduler, Thread
from ..sim.clock import Time, millis
from ..sim.engine import Simulator
from .manager import MemoryManager
from .process import MemProcess, OomAdj

#: (pressure threshold, minimum oom_adj eligible at or above it).
#: Scanned from the top: the first row whose threshold P meets selects
#: the kill floor.  Mirrors lmkd's medium/critical level mapping.
PRESSURE_LADDER: Tuple[Tuple[float, int], ...] = (
    (95.0, OomAdj.FOREGROUND),
    (86.0, OomAdj.PERCEPTIBLE),
    (72.0, OomAdj.SERVICE),
    (60.0, OomAdj.CACHED_MIN),
)

#: CPU cost (reference us) of one kill: cgroup walk + sigkill + reap.
KILL_CPU_US = 9_000.0
#: Minimum spacing between kills (lmkd's kill timeout).
KILL_COOLDOWN: Time = millis(600)


class Lmkd:
    """Userspace low-memory killer."""

    def __init__(self, sim: Simulator, scheduler: Scheduler, manager: MemoryManager) -> None:
        self.sim = sim
        self.manager = manager
        self.thread: Thread = scheduler.spawn("lmkd", SchedClass.FOREGROUND)
        self._last_kill: Time = -KILL_COOLDOWN
        self._pending: Optional[MemProcess] = None
        #: (time, victim name, oom_adj, pressure) for every kill.
        self.kill_log: List[Tuple[Time, str, int, float]] = []
        manager.lmkd = self

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Evaluate the pressure metric; start a kill if warranted.

        Called by the reclaim paths after every batch (the vmpressure
        notification channel lmkd subscribes to).
        """
        if self._pending is not None:
            return
        if self.sim.now - self._last_kill < KILL_COOLDOWN:
            return
        pressure = self.manager.vmstat.pressure(self.sim.now)
        min_adj = self._min_adj(pressure)
        if min_adj is None:
            return
        candidates = self.manager.table.kill_candidates(min_adj)
        if not candidates:
            return
        victim = candidates[0]
        self._pending = victim
        if "lmkd.consider" in self.sim.topics:
            self.sim.emit("lmkd.consider", victim=victim, pressure=pressure)
        self.thread.post(
            KILL_CPU_US,
            on_complete=lambda: self._execute(victim, pressure),
            label=f"lmkd:kill:{victim.name}",
        )

    def _execute(self, victim: MemProcess, pressure: float) -> None:
        self._pending = None
        self._last_kill = self.sim.now
        if not victim.alive:
            return
        self.kill_log.append((self.sim.now, victim.name, victim.oom_adj, pressure))
        self.manager.kill_process(victim, "lmkd")

    @staticmethod
    def _min_adj(pressure: float) -> Optional[int]:
        for threshold, min_adj in PRESSURE_LADDER:
            if pressure >= threshold:
                return min_adj
        return None
