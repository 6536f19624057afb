"""Tests for the runtime invariant checkers.

Two directions, both required for the checkers to be trustworthy:

* **No false positives** — hypothesis drives random interleavings of
  *legal* page operations over a toy :class:`MemoryState` and asserts
  the accounting invariant always holds, and a full invariant-checked
  session digests identically to an unchecked one (attaching a harness
  never changes the trajectory).
* **No false negatives** — every checker family has a tamper test that
  corrupts exactly the state it guards and asserts it fires, and an
  injected accounting fault mid-session is caught within the harness
  poll period.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.session import DEVICE_FACTORIES, StreamingSession
from repro.kernel.memory import MemoryAccountingError, MemoryState
from repro.kernel.pressure import MemoryPressureLevel
from repro.sched.states import ThreadState
from repro.sim.clock import seconds
from repro.validate import (
    InvariantViolation,
    PageConservationChecker,
    PressureOrderingChecker,
    SchedulerSanityChecker,
    ValidationHarness,
    VideoPipelineChecker,
    inject_accounting_fault,
    session_digest,
)

# ----------------------------------------------------------------------
# Property tests: legal operation interleavings never false-positive
# ----------------------------------------------------------------------

#: Every public transition on MemoryState.  Amounts are drawn as a
#: fraction of whatever the source pool currently holds, so most steps
#: are legal; the few that still raise (e.g. ``swap_in`` without enough
#: free pages) exercise the documented rollback paths.
OPS = (
    "alloc_anon", "alloc_file_clean", "alloc_file_dirty",
    "free_anon", "free_file", "drop_clean",
    "writeback", "start_writeback", "complete_writeback",
    "swap_out", "swap_in", "discard_zram",
)

#: Pools the global invariant sums directly.  ``zram_stored`` is
#: deliberately absent: it enters the sum through ``ceil(stored/ratio)``,
#: so a one-page corruption there can be invisible to the total — the
#: fault-injection property would be vacuous for it.
SUMMED_POOLS = ("free", "file_clean", "file_dirty", "file_writeback", "anon")


def _apply(state: MemoryState, op: str, percent: int) -> None:
    def amount(pool: int) -> int:
        return (pool * percent) // 100

    try:
        if op == "alloc_anon":
            state.alloc_anon(amount(state.free))
        elif op == "alloc_file_clean":
            state.alloc_file(amount(state.free))
        elif op == "alloc_file_dirty":
            state.alloc_file(amount(state.free), dirty=True)
        elif op == "free_anon":
            state.free_anon(amount(state.anon))
        elif op == "free_file":
            state.free_file(amount(state.file_clean), amount(state.file_dirty))
        elif op == "drop_clean":
            state.drop_clean(amount(state.file_clean))
        elif op == "writeback":
            state.writeback(amount(state.file_dirty))
        elif op == "start_writeback":
            state.start_writeback(amount(state.file_dirty))
        elif op == "complete_writeback":
            state.complete_writeback(amount(state.file_writeback))
        elif op == "swap_out":
            state.swap_out(min(amount(state.anon), state.zram_capacity_left))
        elif op == "swap_in":
            state.swap_in(amount(state.zram_stored))
        elif op == "discard_zram":
            state.discard_zram(amount(state.zram_stored))
    except MemoryAccountingError:
        pass  # a rejected operation must leave the books intact


steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=100)),
    min_size=1,
    max_size=60,
)


@given(steps=steps)
def test_legal_interleavings_never_trip_the_invariant(steps):
    state = MemoryState(total_pages=4096, kernel_reserved=256)
    state.check()
    for op, percent in steps:
        _apply(state, op, percent)
        state.check()  # never raises for any legal interleaving


@given(
    steps=steps,
    pool=st.sampled_from(SUMMED_POOLS),
    delta=st.integers(min_value=1, max_value=64),
    sign=st.sampled_from((-1, 1)),
)
def test_corrupting_any_summed_pool_always_trips(steps, pool, delta, sign):
    """Seeded fault injection: after any legal history, skewing one
    directly-summed pool by any nonzero amount must be detected."""
    state = MemoryState(total_pages=4096, kernel_reserved=256)
    for op, percent in steps:
        _apply(state, op, percent)
    setattr(state, pool, getattr(state, pool) + sign * delta)
    with pytest.raises(MemoryAccountingError):
        state.check()


# ----------------------------------------------------------------------
# Harness-level fault injection
# ----------------------------------------------------------------------

def test_injected_fault_detected_within_the_same_second():
    """A silent leak from the free counter at t=3s must be reported
    before t=4s (the poll period bounds latency to 250 ms)."""
    device = DEVICE_FACTORIES["nokia1"](seed=91)
    session = StreamingSession(
        device=device, resolution="480p", frame_rate=30,
        pressure="normal", duration_s=10.0, validate=True,
    )
    fault_at = seconds(3.0)
    device.sim.schedule(
        fault_at,
        lambda: inject_accounting_fault(device.memory.state),
        label="test:fault",
    )
    with pytest.raises(InvariantViolation):
        session.run()
    violation = session.harness.violations[0]
    assert violation.checker == "page-conservation"
    assert fault_at <= violation.time <= fault_at + seconds(1.0)


def test_per_process_pool_drift_detected():
    """The conservation checker reconciles global pools against the
    per-process books, so a drift that keeps the global sum intact
    still trips."""
    device = DEVICE_FACTORIES["nokia1"](seed=92)
    harness = ValidationHarness(
        device, checkers=[PageConservationChecker()],
        raise_on_violation=False,
    )
    harness.check_now()
    assert harness.ok  # a freshly booted device reconciles
    victim = next(iter(device.memory.table.alive))
    victim.pools.anon_hot += 5  # process claims pages the state never gave it
    harness.check_now()
    assert any("anon pages unaccounted" in v.message for v in harness.violations)


# ----------------------------------------------------------------------
# Per-checker tamper tests: each family can actually fire
# ----------------------------------------------------------------------

def _harness_with(device, checker):
    return ValidationHarness(
        device, checkers=[checker], raise_on_violation=False
    )


def test_pressure_checker_rejects_bogus_transitions():
    device = DEVICE_FACTORIES["nexus5"](seed=93)
    harness = _harness_with(device, PressureOrderingChecker())
    device.sim.emit(
        "pressure.state",
        level=MemoryPressureLevel.MODERATE,
        previous=MemoryPressureLevel.MODERATE,
    )
    assert any("same level" in v.message for v in harness.violations)
    # With no recent kswapd activity the expected level is Normal, so
    # the bogus Moderate transition is also flagged as inconsistent.
    assert any("inconsistent with inputs" in v.message
               for v in harness.violations)


def test_pressure_checker_rejects_signal_at_normal():
    device = DEVICE_FACTORIES["nexus5"](seed=94)
    harness = _harness_with(device, PressureOrderingChecker())
    device.sim.emit("pressure.signal", level=MemoryPressureLevel.NORMAL)
    assert any("signal emitted at Normal" in v.message
               for v in harness.violations)


def test_pressure_checker_rejects_spurious_kswapd_wake():
    device = DEVICE_FACTORIES["nexus5"](seed=95)
    harness = _harness_with(device, PressureOrderingChecker())
    assert not device.memory.state.below_low  # plenty free after boot
    device.sim.emit("kswapd.wake")
    assert any("kswapd woke" in v.message for v in harness.violations)


def test_scheduler_checker_catches_phantom_running_thread():
    device = DEVICE_FACTORIES["nexus5"](seed=96)
    harness = _harness_with(device, SchedulerSanityChecker())
    harness.check_now()
    assert harness.ok
    phantom = next(
        t for t in device.scheduler.threads
        if not t.dead and t.state is not ThreadState.RUNNING
    )
    phantom.accounting.current = ThreadState.RUNNING  # claims a core it never got
    harness.check_now()
    assert any("does not match core occupancy" in v.message
               for v in harness.violations)


def test_video_checker_catches_negative_in_flight():
    device = DEVICE_FACTORIES["nexus5"](seed=97)
    harness = _harness_with(device, VideoPipelineChecker())
    pipeline = SimpleNamespace(stats=SimpleNamespace(
        frames_processed=5, frames_rendered=3, frames_dropped=2,
    ))
    device.sim.emit(
        "video.frame", phase="render", pipeline=pipeline, in_flight=-1,
        late=False, count=1,
    )
    assert any("went negative" in v.message for v in harness.violations)
    assert any("do not balance" in v.message for v in harness.violations)


def test_video_checker_catches_unbalanced_books():
    device = DEVICE_FACTORIES["nexus5"](seed=98)
    harness = _harness_with(device, VideoPipelineChecker())
    pipeline = SimpleNamespace(stats=SimpleNamespace(
        frames_processed=10, frames_rendered=3, frames_dropped=2,
    ))
    device.sim.emit(
        "video.frame", phase="decode", pipeline=pipeline, in_flight=4,
        late=False, count=1,
    )
    assert [v.checker for v in harness.violations] == ["video-pipeline"]
    assert "do not balance" in harness.violations[0].message


# ----------------------------------------------------------------------
# Harness mechanics
# ----------------------------------------------------------------------

def test_harness_raises_at_violation_time_by_default():
    device = DEVICE_FACTORIES["nokia1"](seed=99)
    harness = ValidationHarness(device, checkers=[PageConservationChecker()])
    inject_accounting_fault(device.memory.state)
    with pytest.raises(InvariantViolation) as exc:
        harness.check_now()
    assert "page-conservation" in str(exc.value)
    assert not harness.ok


def test_finalize_stops_polling_and_is_idempotent():
    device = DEVICE_FACTORIES["nokia1"](seed=100)
    harness = ValidationHarness(device, checkers=[PageConservationChecker()])
    first = harness.finalize()
    polls = harness.polls
    assert first == [] and polls >= 1
    assert harness.finalize() == []  # second call is a no-op
    assert harness.polls == polls
    # The poll event was cancelled: advancing time runs no more checks.
    device.sim.run(until=seconds(2.0))
    assert harness.polls == polls


# ----------------------------------------------------------------------
# Trajectory neutrality: validation observes, never perturbs
# ----------------------------------------------------------------------

def test_harness_does_not_change_the_trajectory():
    """The same seed digests identically with and without checkers —
    the whole validation layer is read-only."""

    def run(validate):
        return StreamingSession(
            device="nokia1", resolution="480p", frame_rate=30,
            pressure="moderate", duration_s=8.0, seed=101,
            validate=validate,
        ).run()

    assert session_digest(run(validate=True)) == session_digest(
        run(validate=False)
    )
