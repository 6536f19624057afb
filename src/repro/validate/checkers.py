"""Runtime invariant checkers for the simulator.

Every §3/§4 figure rests on the simulator respecting the physics it
models: pages are conserved, pressure levels follow the watermark
machinery, the scheduler is work-conserving, and frames flow decode →
render.  A silent accounting bug would skew every downstream number, so
this module makes those invariants *executable*: a
:class:`ValidationHarness` attached to a device subscribes to the
engine's instrumentation topics (``memory.plan``, ``pressure.state``,
``sched.switch``, ``video.frame``, …) and re-derives each invariant
independently at every event boundary, plus on a periodic poll.

Every emit site is gated on its own topic (``MEMORY_PLAN in
sim.topics``, a :mod:`repro.sim.bus` constant): with no harness (the
common case) a site costs one set probe, and a harness pays only for
the topics it subscribes.  None of
them is ``sched.state`` or ``sched.wakeup``, so a validated session
keeps the scheduler's idle-core wakeup fast path.  Checker
callbacks are strictly read-only — attaching a harness never changes a
session's trajectory, which ``tests/validate`` locks in by comparing
result digests with and without one.

Checkers report through :meth:`ValidationHarness.report`; by default a
violation raises :class:`InvariantViolation` at the exact simulated
time the books first disagree (the poll period bounds detection latency
to 250 simulated milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..faults import active_plan
from ..kernel.memory import MemoryAccountingError, MemoryState
from ..kernel.pressure import MemoryPressureLevel, PressureMonitor
from ..sched.scheduler import SchedClass, Thread
from ..sched.states import ThreadState
from ..sim.bus import (
    KSWAPD_WAKE, MEMORY_PLAN, PRESSURE_SIGNAL, PRESSURE_STATE, PROCESS_KILL,
    SCHED_SWITCH, SESSION_END, VIDEO_FRAME,
)
from ..sim.clock import Time, seconds, to_seconds
from ..sim.periodic import PeriodicService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..device.device import Device
    from ..video.pipeline import RenderPipeline
    from ..video.player import VideoPlayer


class InvariantViolation(AssertionError):
    """A simulator invariant failed while a validation harness watched."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant failure."""

    time: Time
    checker: str
    message: str

    def __str__(self) -> str:
        return f"[t={to_seconds(self.time):.3f}s] {self.checker}: {self.message}"


class Checker:
    """Base class: one invariant family, attached to one harness."""

    name = "checker"

    #: Set by the harness when the checker itself crashed (raised
    #: something other than an invariant violation) and was taken out
    #: of rotation — graceful degradation, recorded in the report.
    disabled: bool = False

    def attach(self, harness: "ValidationHarness") -> None:
        self.harness = harness
        self.device = harness.device
        self.sim = harness.device.sim

    def report(self, message: str) -> None:
        self.harness.report(self.name, message)

    def poll(self) -> None:
        """Periodic re-check (every harness poll interval)."""

    def finalize(self) -> None:
        """End-of-session checks over accumulated logs."""


# ----------------------------------------------------------------------
# (a) Page conservation
# ----------------------------------------------------------------------
class PageConservationChecker(Checker):
    """free + cached + anon + zRAM + writeback + reserved == total RAM,
    and the global pools reconcile with per-process page pools — checked
    after every reclaim-plan application, every kill, and every poll."""

    name = "page-conservation"

    def attach(self, harness: "ValidationHarness") -> None:
        super().attach(harness)
        self.sim.on(MEMORY_PLAN, self._on_event)
        self.sim.on(PROCESS_KILL, self._on_event)

    def _on_event(self, time: Time, **_payload: object) -> None:
        self.verify()

    def poll(self) -> None:
        self.verify()

    def verify(self) -> None:
        manager = self.device.memory
        state = manager.state
        try:
            state.check()
        except MemoryAccountingError as exc:
            self.report(f"global accounting broken: {exc}")
            return
        alive = manager.table.alive
        anon = sum(p.pools.resident_anon for p in alive)
        file = sum(p.pools.resident_file for p in alive)
        swapped = sum(
            p.pools.swapped_hot + p.pools.swapped_cold for p in alive
        )
        if anon != state.anon:
            self.report(
                f"anon pages unaccounted: processes hold {anon}, "
                f"state records {state.anon}"
            )
        if file != state.cached:
            self.report(
                f"file pages unaccounted: processes hold {file}, "
                f"state records {state.cached} cached"
            )
        if swapped != state.zram_stored:
            self.report(
                f"zRAM pages unaccounted: processes hold {swapped}, "
                f"state records {state.zram_stored} stored"
            )


# ----------------------------------------------------------------------
# (b) Watermark / pressure ordering
# ----------------------------------------------------------------------
class PressureOrderingChecker(Checker):
    """Pressure transitions must follow the watermark machinery: levels
    re-derive from kswapd recency + the cached-process count, signals
    fire only at elevated levels, kswapd wakes only below the low
    watermark, and same-level re-emissions respect the re-emit period."""

    name = "pressure-ordering"

    def attach(self, harness: "ValidationHarness") -> None:
        super().attach(harness)
        self.sim.on(PRESSURE_STATE, self._on_state)
        self.sim.on(PRESSURE_SIGNAL, self._on_signal)
        self.sim.on(KSWAPD_WAKE, self._on_kswapd_wake)
        self._last_signal: Optional[Tuple[Time, MemoryPressureLevel]] = None
        self._changed_since_signal = False

    def _expected_level(self) -> MemoryPressureLevel:
        monitor = self.device.memory.monitor
        recent = (
            self.sim.now - monitor.last_kswapd_activity
            <= PressureMonitor.KSWAPD_ACTIVITY_WINDOW
        )
        if not recent:
            return MemoryPressureLevel.NORMAL
        return monitor.thresholds.classify(monitor.table.cached_count)

    def _on_state(
        self,
        time: Time,
        level: MemoryPressureLevel,
        previous: MemoryPressureLevel,
        **_payload: object,
    ) -> None:
        self._changed_since_signal = True
        if level == previous:
            self.report(f"state transition to the same level {level.label}")
        expected = self._expected_level()
        if level != expected:
            self.report(
                f"level {level.label} inconsistent with inputs: cached "
                f"count and kswapd recency imply {expected.label}"
            )

    def _on_signal(
        self, time: Time, level: MemoryPressureLevel, **_payload: object
    ) -> None:
        if level <= MemoryPressureLevel.NORMAL:
            self.report("OnTrimMemory signal emitted at Normal level")
        monitor = self.device.memory.monitor
        if level != monitor.level:
            self.report(
                f"signal level {level.label} disagrees with monitor "
                f"state {monitor.level.label}"
            )
        if self._last_signal is not None and not self._changed_since_signal:
            last_time, last_level = self._last_signal
            if (
                level == last_level
                and time - last_time < PressureMonitor.REEMIT_INTERVAL
            ):
                self.report(
                    f"{level.label} re-emitted after "
                    f"{to_seconds(time - last_time):.3f}s, below the "
                    "re-emit period"
                )
        self._last_signal = (time, level)
        self._changed_since_signal = False

    def _on_kswapd_wake(self, time: Time, **_payload: object) -> None:
        state = self.device.memory.state
        if state.free >= state.watermarks.low_pages:
            self.report(
                f"kswapd woke with {state.free} pages free, at or above "
                f"the low watermark {state.watermarks.low_pages}"
            )

    def poll(self) -> None:
        monitor = self.device.memory.monitor
        # The monitor polls at least as often as the harness, so its
        # published level can lag inputs by at most one poll period —
        # anything elevated with *stale* kswapd activity is a real bug.
        if (
            monitor.level > MemoryPressureLevel.NORMAL
            and self.sim.now - monitor.last_kswapd_activity
            > PressureMonitor.KSWAPD_ACTIVITY_WINDOW
            + PressureMonitor.POLL_INTERVAL
        ):
            self.report(
                f"level stuck at {monitor.level.label} with no kswapd "
                "activity inside the window"
            )

    def finalize(self) -> None:
        monitor = self.device.memory.monitor
        for log_name in ("state_log", "signal_log"):
            log = getattr(monitor, log_name)
            for earlier, later in zip(log, log[1:]):
                if later[0] < earlier[0]:
                    self.report(f"{log_name} timestamps not monotonic")
                    break


# ----------------------------------------------------------------------
# (c) Scheduler sanity
# ----------------------------------------------------------------------
class SchedulerSanityChecker(Checker):
    """No thread on two cores, running set == core occupancy, strict
    priority respected at dispatch, no idle core while an eligible
    thread waits, and no high-class thread starved past a bound."""

    name = "scheduler-sanity"

    #: A FOREGROUND-or-better thread continuously runnable this long has
    #: been starved (FIFO rotation bounds real waits to tens of ms).
    STARVATION_BOUND: Time = seconds(2.0)

    def attach(self, harness: "ValidationHarness") -> None:
        super().attach(harness)
        self.sim.on(SCHED_SWITCH, self._on_switch)

    def _on_switch(
        self, time: Time, thread: Thread, core: int, **_payload: object
    ) -> None:
        scheduler = self.device.scheduler
        occupied = [c.index for c in scheduler.cores if c.current is thread]
        if occupied != [core]:
            self.report(
                f"{thread.name} dispatched to core {core} but occupies "
                f"cores {occupied}"
            )
        if thread.state is not ThreadState.RUNNING:
            self.report(
                f"{thread.name} dispatched while in state {thread.state.value}"
            )
        # Strict priority: anything of a more urgent class still queued
        # must have been affinity-blocked from this core.
        for sched_class in SchedClass:
            if sched_class >= thread.sched_class:
                break
            for waiter in scheduler._runqueues[sched_class]:
                if (
                    waiter.allowed_cores is None
                    or core in waiter.allowed_cores
                ):
                    self.report(
                        f"{thread.name} ({thread.sched_class.name}) given "
                        f"core {core} while {waiter.name} "
                        f"({waiter.sched_class.name}) waited for it"
                    )

    def poll(self) -> None:
        scheduler = self.device.scheduler
        on_core = [c.current for c in scheduler.cores if c.current is not None]
        if len(set(map(id, on_core))) != len(on_core):
            names = sorted(t.name for t in on_core)
            self.report(f"a thread occupies two cores: {names}")
        running = [
            t for t in scheduler.threads
            if not t.dead and t.state is ThreadState.RUNNING
        ]
        if set(map(id, running)) != set(map(id, on_core)):
            self.report(
                f"RUNNING set {sorted(t.name for t in running)} does not "
                f"match core occupancy {sorted(t.name for t in on_core)}"
            )
        idle = [c for c in scheduler.cores if c.current is None]
        if idle:
            for queue in scheduler._runqueues.values():
                for waiter in queue:
                    for core in idle:
                        if (
                            waiter.allowed_cores is None
                            or core.index in waiter.allowed_cores
                        ):
                            self.report(
                                f"core {core.index} idle while "
                                f"{waiter.name} is runnable on it"
                            )
                            return
        now = self.sim.now
        for thread in scheduler.threads:
            if thread.dead or thread.sched_class > SchedClass.FOREGROUND:
                continue
            if thread.state in (
                ThreadState.RUNNABLE, ThreadState.RUNNABLE_PREEMPTED
            ) and now - thread.accounting.since > self.STARVATION_BOUND:
                self.report(
                    f"{thread.name} ({thread.sched_class.name}) runnable "
                    f"for {to_seconds(now - thread.accounting.since):.2f}s "
                    "without a slice"
                )


# ----------------------------------------------------------------------
# (d) Video-pipeline causality
# ----------------------------------------------------------------------
class VideoPipelineChecker(Checker):
    """Frames render only after decode (the in-flight count can never go
    negative), frame counts reconcile at every pipeline event, and the
    playback buffer's occupancy stays non-negative."""

    name = "video-pipeline"

    def attach(self, harness: "ValidationHarness") -> None:
        super().attach(harness)
        self.sim.on(VIDEO_FRAME, self._on_frame)
        self.sim.on(SESSION_END, self._on_session_end)

    def _on_frame(
        self,
        time: Time,
        phase: str,
        pipeline: "RenderPipeline",
        in_flight: int,
        count: int,
        **_payload: object,
    ) -> None:
        if in_flight < 0:
            self.report(
                f"{phase}: in-flight frame count went negative "
                f"({in_flight}) — a frame rendered before its decode"
            )
        if phase == "skip" and count < 1:
            self.report(f"skip event with non-positive batch size ({count!r})")
        stats = pipeline.stats
        expected = stats.frames_rendered + stats.frames_dropped + in_flight
        if stats.frames_processed != expected:
            self.report(
                f"{phase}: frame books do not balance — processed "
                f"{stats.frames_processed}, but rendered "
                f"{stats.frames_rendered} + dropped {stats.frames_dropped} "
                f"+ in flight {in_flight} = {expected}"
            )

    def _on_session_end(
        self, time: Time, player: "VideoPlayer", **_payload: object
    ) -> None:
        buffer = player.buffer
        if buffer.level_s < -1e-6 or buffer.level_bytes < 0:
            self.report(
                f"playback buffer occupancy negative at teardown: "
                f"{buffer.level_s:.3f}s / {buffer.level_bytes} bytes"
            )
        stats = player.pipeline.stats
        if stats.frames_processed != stats.frames_rendered + stats.frames_dropped:
            self.report(
                f"session ended with unresolved frames: processed "
                f"{stats.frames_processed}, rendered {stats.frames_rendered}, "
                f"dropped {stats.frames_dropped}"
            )


DEFAULT_CHECKERS = (
    PageConservationChecker,
    PressureOrderingChecker,
    SchedulerSanityChecker,
    VideoPipelineChecker,
)


class ValidationHarness:
    """Attaches invariant checkers to a device's simulator.

    Create the harness before running the simulation (checkers observe
    events from subscription onward).  ``raise_on_violation=False``
    collects violations in :attr:`violations` instead of raising, for
    tests that assert on the full set.
    """

    #: Periodic re-check interval — bounds how long a corruption that no
    #: event path touches can stay undetected (well under one second).
    POLL_INTERVAL: Time = seconds(0.25)

    def __init__(
        self,
        device: "Device",
        checkers: Optional[Sequence[Checker]] = None,
        raise_on_violation: bool = True,
    ) -> None:
        self.device = device
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self.polls = 0
        self._finalized = False
        self.checkers: List[Checker] = list(
            checkers if checkers is not None
            else (cls() for cls in DEFAULT_CHECKERS)
        )
        for checker in self.checkers:
            checker.attach(self)
        self._poll_service = PeriodicService(
            device.sim, self.POLL_INTERVAL, self.check_now,
            label="validate:poll",
        )
        self._poll_service.start()

    # ------------------------------------------------------------------
    def report(self, checker: str, message: str) -> None:
        violation = Violation(self.device.sim.now, checker, message)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise InvariantViolation(str(violation))

    @property
    def ok(self) -> bool:
        return not self.violations

    def check_now(self) -> None:
        """Run every checker's poll pass immediately."""
        self.polls += 1
        for checker in self.checkers:
            self._run_checker(checker, checker.poll)

    def finalize(self) -> List[Violation]:
        """Run final checks, stop polling, and return all violations."""
        if not self._finalized:
            self._finalized = True
            self._poll_service.stop()
            self.check_now()
            for checker in self.checkers:
                self._run_checker(checker, checker.finalize)
        return self.violations

    def _run_checker(self, checker: Checker, phase: Callable[[], None]) -> None:
        """Run one checker phase with crash containment.

        A checker that raises anything other than an
        :class:`InvariantViolation` is itself broken; the simulation
        under test is not.  Checkers are strictly read-only, so the
        graceful response is to record the crash as a violation entry
        (the validation report still fails, with a readable message),
        disable the checker, and let the session finish — never to
        abort a multi-hour sweep with a checker traceback.  The
        ``checker:<ClassName>`` fault point lets the chaos suite prove
        this containment.
        """
        if checker.disabled:
            return
        try:
            plan = active_plan()
            if plan is not None:
                plan.fire(f"checker:{type(checker).__name__}")
            phase()
        except InvariantViolation:
            raise
        except Exception as exc:
            checker.disabled = True
            self.violations.append(Violation(
                self.device.sim.now,
                checker.name,
                f"checker crashed and was disabled: {exc!r}",
            ))


def inject_accounting_fault(state: MemoryState, pages: int = 64) -> None:
    """Test-only hook: silently leak ``pages`` from the free counter,
    the kind of bookkeeping slip the conservation checker exists to
    catch.  Never called outside tests."""
    state.free -= pages
