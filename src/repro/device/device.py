"""Device integration: memory + CPUs + storage + kernel daemons.

:class:`Device` wires one :class:`~repro.device.profiles.DeviceProfile`
into a live simulation: the scheduler over the profile's cores, the
eMMC model behind mmcqd, the memory state with its watermarks, kswapd,
lmkd, and the OnTrimMemory monitor.  ``boot()`` populates the initial
process set — system services plus a population of cached background
apps whose LRU count drives the pressure thresholds.
"""

from __future__ import annotations

from typing import List, Optional

from ..kernel.kswapd import Kswapd
from ..kernel.lmkd import Lmkd
from ..kernel.manager import MemoryManager
from ..kernel.memory import MemoryState, Watermarks, mb_to_pages
from ..kernel.mmcqd import Mmcqd
from ..kernel.pressure import MemoryPressureLevel
from ..kernel.process import MemProcess, OomAdj
from ..sched.cpu import make_cores
from ..sched.scheduler import SchedClass, Scheduler
from ..sim.clock import millis, seconds
from ..sim.engine import Simulator
from ..sim.periodic import PeriodicService
from .profiles import DeviceProfile, nexus5_profile, nexus6p_profile, nokia1_profile
from .storage import StorageDevice


class Device:
    """A booted simulated smartphone."""

    #: Delay range before Android re-caches a killed background app.
    RESPAWN_DELAY_RANGE_S = (3.0, 8.0)
    #: Retry period when a respawn finds no memory headroom.
    RESPAWN_RETRY_S = 2.0

    def __init__(self, profile: DeviceProfile, seed: int = 0,
                 auto_respawn: bool = True, pin_kswapd: bool = False) -> None:
        self.profile = profile
        self.sim = Simulator(seed=seed)
        self.scheduler = Scheduler(
            self.sim,
            make_cores(list(profile.core_freqs_ghz), list(profile.core_clusters)),
        )
        self.storage = StorageDevice(profile.storage, self.sim.random)
        self.mmcqd = Mmcqd(self.sim, self.scheduler, self.storage)
        state = MemoryState(
            total_pages=mb_to_pages(profile.ram_mb),
            kernel_reserved=mb_to_pages(profile.kernel_reserved_mb),
            zram_ratio=profile.zram_ratio,
            watermarks=Watermarks(),
        )
        self.memory = MemoryManager(
            self.sim,
            self.scheduler,
            state,
            self.mmcqd,
            thresholds=profile.pressure_thresholds,
        )
        self.kswapd = Kswapd(self.sim, self.scheduler, self.memory)
        self.lmkd = Lmkd(self.sim, self.scheduler, self.memory)
        if pin_kswapd:
            # §7's OS-scheduling suggestion: coordinate daemon/core
            # placement — pin kswapd to the last core so it stops
            # migrating across (and cache-thrashing) the video cores.
            self.kswapd.thread.pin_to({len(self.scheduler.cores) - 1})
        self._booted = False
        self.auto_respawn = auto_respawn
        self.cached_apps: List[MemProcess] = []
        self.respawn_count = 0

    # ------------------------------------------------------------------
    def boot(self) -> "Device":
        """Populate system processes and the cached-app LRU population."""
        if self._booted:
            return self
        self._booted = True
        system_threads = []
        for name, oom_adj, size_mb in self.profile.system_processes:
            process = self.memory.spawn_process(name, oom_adj, dirty_fraction=0.05)
            self.memory.seed_memory(
                process, mb_to_pages(size_mb), file_share=0.3, hot_fraction=0.7
            )
            if name in ("system_server", "android.systemui"):
                system_threads.append(self.memory.spawn_thread(
                    process, f"{name}.main", SchedClass.FOREGROUND
                ))
        self._system_duty_loop(system_threads, duty=0.08)
        rng = self.sim.random.stream("device.cached_apps")
        for i in range(self.profile.cached_app_count):
            size_mb = max(
                18.0, rng.gauss(self.profile.cached_app_mb_mean,
                                self.profile.cached_app_mb_mean * 0.35)
            )
            adj = min(OomAdj.CACHED_MAX, OomAdj.CACHED_MIN + i * 8)
            process = self.memory.spawn_process(
                f"cached.app{i}", adj, dirty_fraction=0.12
            )
            self.memory.seed_memory(
                process,
                mb_to_pages(size_mb),
                file_share=0.45,
                hot_fraction=0.25,  # background apps' pages are mostly cold
            )
            self._watch_for_respawn(process, i, size_mb)
            self.cached_apps.append(process)
        return self

    def _system_duty_loop(self, threads, duty: float) -> None:
        """Light ongoing CPU load from always-on system services: one
        clock posts a burst to each thread in turn."""
        rng = self.sim.random.stream("device.system_duty")
        period = millis(25)
        scale = period * duty

        def tick() -> None:
            for thread in threads:
                burst = scale * rng.lognormvariate(0.0, 0.3)
                if burst >= 1.0:
                    thread.post(burst, label="sysduty")

        # System services never stop; the first bursts land inline.
        PeriodicService(self.sim, period, tick, label="sysduty").fire()

    def _watch_for_respawn(self, process: MemProcess, slot: int, size_mb: float) -> None:
        """Android aggressively re-caches processes: when a cached app is
        killed, a replacement comes back after a short delay (provided
        there is memory headroom), restoring the LRU-list length."""
        if not self.auto_respawn:
            return

        def on_kill(_reason: str) -> None:
            rng = self.sim.random.stream("device.respawn")
            lo, hi = self.RESPAWN_DELAY_RANGE_S
            delay = seconds(rng.uniform(lo, hi))
            self.sim.schedule(delay, attempt_respawn, label="respawn")

        def attempt_respawn() -> None:
            needed = mb_to_pages(size_mb)
            headroom = self.memory.state.free - self.memory.state.watermarks.low_pages
            under_pressure = (
                self.memory.monitor.level != MemoryPressureLevel.NORMAL
            )
            if headroom <= needed or under_pressure:
                # Android does not re-cache processes while the device is
                # actively short on memory; retry once things calm down.
                self.sim.schedule(
                    seconds(self.RESPAWN_RETRY_S), attempt_respawn, label="respawn"
                )
                return
            self.respawn_count += 1
            adj = min(OomAdj.CACHED_MAX, OomAdj.CACHED_MIN + slot * 8)
            replacement = self.memory.spawn_process(
                f"cached.app{slot}.r{self.respawn_count}", adj, dirty_fraction=0.12
            )
            self.memory.seed_memory(
                replacement, needed, file_share=0.45, hot_fraction=0.25
            )
            self._watch_for_respawn(replacement, slot, size_mb)
            self.cached_apps.append(replacement)
            self.memory.monitor.update()

        process.on_kill.append(on_kill)

    # ------------------------------------------------------------------
    @property
    def pressure_level(self) -> MemoryPressureLevel:
        return self.memory.monitor.level

    @property
    def free_mb(self) -> float:
        return self.memory.state.free / 256

    def run(self, until: Optional[int] = None) -> int:
        """Advance the simulation (delegates to the engine)."""
        return self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Device {self.profile.name} free={self.free_mb:.0f}MB "
            f"pressure={self.pressure_level.label}>"
        )


def nokia1(seed: int = 0) -> Device:
    """A booted Nokia 1 (1 GB RAM entry-level device)."""
    return Device(nokia1_profile(), seed=seed).boot()


def nexus5(seed: int = 0) -> Device:
    """A booted Nexus 5 (2 GB RAM mid-range device)."""
    return Device(nexus5_profile(), seed=seed).boot()


def nexus6p(seed: int = 0) -> Device:
    """A booted Nexus 6P (3 GB RAM device)."""
    return Device(nexus6p_profile(), seed=seed).boot()
