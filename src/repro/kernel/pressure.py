"""Memory-pressure levels and the OnTrimMemory signal monitor.

Android raises memory-pressure callbacks to foreground apps at three
levels — Moderate, Low (here called RUNNING_LOW), and Critical — when
kswapd cannot find enough free memory (§2).  The levels are derived
from the number of cached/empty processes left in the ActivityManager's
LRU list: Android caches processes aggressively, so a shrinking cached
list means lmkd has been killing to find memory.  On the paper's 1 GB
Nokia 1 the thresholds are 6 / 5 / 3 cached processes for Moderate /
Low / Critical (§2, footnote 6) — these are the library defaults, and
device profiles may override them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..sim.bus import PRESSURE_SIGNAL, PRESSURE_STATE
from ..sim.clock import Time, seconds
from ..sim.engine import Simulator
from ..sim.periodic import PeriodicService
from .process import ProcessTable


class MemoryPressureLevel(enum.IntEnum):
    """Device memory-pressure state, ordered by severity."""

    NORMAL = 0
    MODERATE = 1
    LOW = 2
    CRITICAL = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class PressureThresholds:
    """Cached-process-count thresholds for each signal level."""

    moderate: int = 6
    low: int = 5
    critical: int = 3

    def classify(self, cached_count: int) -> MemoryPressureLevel:
        if cached_count <= self.critical:
            return MemoryPressureLevel.CRITICAL
        if cached_count <= self.low:
            return MemoryPressureLevel.LOW
        if cached_count <= self.moderate:
            return MemoryPressureLevel.MODERATE
        return MemoryPressureLevel.NORMAL


SignalCallback = Callable[[MemoryPressureLevel, Time], None]


class PressureMonitor:
    """ActivityManager analog: tracks the pressure level and notifies
    registered applications (OnTrimMemory).

    A signal fires on every level change and is re-emitted periodically
    while the device stays in a non-Normal state, which is what makes
    "signals per hour" a meaningful rate in the §3 user study.
    """

    #: How recently kswapd must have been active for non-Normal levels.
    KSWAPD_ACTIVITY_WINDOW: Time = seconds(2.0)
    #: Re-emission period while the level stays elevated.
    REEMIT_INTERVAL: Time = seconds(2.0)
    #: Polling period for level recomputation.
    POLL_INTERVAL: Time = seconds(0.25)

    def __init__(
        self,
        sim: Simulator,
        table: ProcessTable,
        thresholds: PressureThresholds = PressureThresholds(),
    ) -> None:
        self.sim = sim
        self.table = table
        self.thresholds = thresholds
        self.level = MemoryPressureLevel.NORMAL
        self.last_kswapd_activity: Time = -(self.KSWAPD_ACTIVITY_WINDOW + 1)
        self._subscribers: List[SignalCallback] = []
        self._last_emit: Time = 0
        #: (time, level) of every signal emitted, for analysis.
        self.signal_log: List[Tuple[Time, MemoryPressureLevel]] = []
        #: (time, level) of every state change, including back to Normal.
        self.state_log: List[Tuple[Time, MemoryPressureLevel]] = [
            (0, MemoryPressureLevel.NORMAL)
        ]
        #: Periodic level recomputation (there used to be two copies of
        #: this poll loop — the bootstrap schedule here and the re-arm
        #: in the handler; the service is now the single copy).
        self._poll_service = PeriodicService(
            sim, self.POLL_INTERVAL, self.update, label="pressure:poll"
        )
        self._poll_service.start()

    # ------------------------------------------------------------------
    def subscribe(self, callback: SignalCallback) -> None:
        """Register an application for OnTrimMemory callbacks."""
        self._subscribers.append(callback)

    def note_kswapd_activity(self) -> None:
        """Called by kswapd whenever it performs reclaim work."""
        self.last_kswapd_activity = self.sim.now
        self.update()

    def update(self) -> None:
        """Recompute the level; emit a signal on escalation or change."""
        new_level = self._compute_level()
        if new_level != self.level:
            previous = self.level
            self.level = new_level
            self.state_log.append((self.sim.now, new_level))
            if PRESSURE_STATE in self.sim.topics:
                self.sim.emit(
                    PRESSURE_STATE, level=new_level, previous=previous
                )
            if new_level > MemoryPressureLevel.NORMAL:
                self._emit(new_level)
        elif (
            new_level > MemoryPressureLevel.NORMAL
            and self.sim.now - self._last_emit >= self.REEMIT_INTERVAL
        ):
            self._emit(new_level)

    # ------------------------------------------------------------------
    def _compute_level(self) -> MemoryPressureLevel:
        recent = self.sim.now - self.last_kswapd_activity <= self.KSWAPD_ACTIVITY_WINDOW
        if not recent:
            return MemoryPressureLevel.NORMAL
        return self.thresholds.classify(self.table.cached_count)

    def _emit(self, level: MemoryPressureLevel) -> None:
        self._last_emit = self.sim.now
        self.signal_log.append((self.sim.now, level))
        if PRESSURE_SIGNAL in self.sim.topics:
            self.sim.emit(PRESSURE_SIGNAL, level=level)
        for callback in self._subscribers:
            callback(level, self.sim.now)

    # ------------------------------------------------------------------
    def time_in_levels(self, horizon: Time) -> dict:
        """Total ticks spent at each level up to ``horizon``."""
        totals = {level: 0 for level in MemoryPressureLevel}
        log = self.state_log
        for i, (start, level) in enumerate(log):
            end = log[i + 1][0] if i + 1 < len(log) else horizon
            if start >= horizon:
                break
            totals[level] += min(end, horizon) - start
        return totals
