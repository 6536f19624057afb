"""Per-topic emit gates: a subscriber changes nothing it does not watch.

Each instrumentation site is gated on its own topic, and the
scheduler's idle-core wakeup fast path stays on unless a ``sched.state``
or ``sched.wakeup`` subscriber could observe the zero-length RUNNABLE
interval it skips.  One pressured session is run three ways — no
subscriber, a ``video.frame`` subscriber (fast path), a ``sched.state``
subscriber (explicit route) — and must come out identical, while no
emit is ever made for a topic nobody subscribed to.  All three must also
match the same session on the scheduler's explicit routes
(:mod:`tests.sched.explicit_routes`), which take neither the wakeup
fast path nor ``_slice_end``'s direct sleep and re-arm.
"""

from repro.core.session import DEVICE_FACTORIES, StreamingSession
from repro.sched.scheduler import Scheduler
from repro.sim import Simulator
from repro.validate import session_digest

from .explicit_routes import use_explicit_routes


def _run(topic, monkeypatch, explicit=False):
    """One nexus5/critical/480p60 4 s session, with a no-op subscriber
    on ``topic`` unless it is None, on the explicit routes if
    ``explicit``.  Returns the session's snapshot, the
    ``(topic, subscribed)`` pair of every emit call, and the number of
    dispatch scans (the explicit wakeup route ends in one; the fast
    path does not)."""
    emits = []
    dispatches = [0]
    original_emit = Simulator.emit
    original_dispatch = Scheduler._dispatch

    def checked_emit(sim, name, **payload):
        emits.append((name, name in sim._hooks))
        original_emit(sim, name, **payload)

    def counted_dispatch(sched):
        dispatches[0] += 1
        original_dispatch(sched)

    device = DEVICE_FACTORIES["nexus5"](seed=5)
    if topic is not None:
        device.sim.on(topic, lambda time, **payload: None)
    session = StreamingSession(
        device=device, resolution="480p", frame_rate=60,
        pressure="critical", duration_s=4.0,
    )
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "emit", checked_emit)
        patch.setattr(Scheduler, "_dispatch", counted_dispatch)
        if explicit:
            use_explicit_routes(patch)
        result = session.run()
    sched = device.scheduler
    snapshot = {
        "digest": session_digest(result),
        "context_switches": sched.context_switches,
        "preemptions": sched.preemption_count,
        "elided_slices": sched.elided_slices,
        "totals": {
            thread.name: dict(thread.accounting.totals)
            for thread in sched.threads
        },
    }
    return snapshot, emits, dispatches[0]


def test_subscribers_leave_session_and_accounting_unchanged(monkeypatch):
    bare, bare_emits, bare_scans = _run(None, monkeypatch)
    frame, frame_emits, frame_scans = _run("video.frame", monkeypatch)
    state, state_emits, state_scans = _run("sched.state", monkeypatch)
    explicit, explicit_emits, explicit_scans = _run(
        None, monkeypatch, explicit=True
    )
    assert bare["preemptions"] > 0  # the session is really contended
    assert frame == bare
    assert state == bare
    assert explicit == bare
    assert explicit_emits == []
    # No emit is made for a topic without a subscriber, and the
    # subscribed topic is delivered.
    assert bare_emits == []
    assert {name for name, _ in frame_emits} == {"video.frame"}
    assert {name for name, _ in state_emits} == {"sched.state"}
    assert all(subscribed for _, subscribed in frame_emits + state_emits)
    # A video.frame subscriber keeps the wakeup fast path; a
    # sched.state subscriber takes the explicit route, which scans.
    assert frame_scans == bare_scans < state_scans
    # The direct paths skip scans the explicit routes make.
    assert bare_scans < explicit_scans
