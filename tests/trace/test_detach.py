"""Tests for ``Simulator.off`` and ``TraceRecorder.detach``: the
record side of the record/replay split must stop cleanly and cost the
simulation nothing afterwards."""

from repro.sched import Scheduler, make_cores
from repro.sim import Simulator, millis
from repro.trace.recorder import TraceRecorder


def make_traced():
    sim = Simulator(seed=3)
    sched = Scheduler(sim, make_cores([1.0]))
    recorder = TraceRecorder(sim)
    return sim, sched, recorder


# ----------------------------------------------------------------------
# Simulator.off
# ----------------------------------------------------------------------

def test_off_removes_callback():
    sim = Simulator(seed=1)
    hits = []
    cb = lambda **kw: hits.append(kw)  # noqa: E731
    sim.on("topic", cb)
    sim.emit("topic", value=1)
    sim.off("topic", cb)
    sim.emit("topic", value=2)
    assert len(hits) == 1


def test_off_drops_tracing_flag_when_last_hook_leaves():
    sim = Simulator(seed=1)
    cb_a = lambda **kw: None  # noqa: E731
    cb_b = lambda **kw: None  # noqa: E731
    sim.on("a", cb_a)
    sim.on("b", cb_b)
    sim.off("a", cb_a)
    assert sim.tracing  # one subscriber left
    sim.off("b", cb_b)
    assert not sim.tracing  # emit() fast path restored


def test_off_is_idempotent():
    sim = Simulator(seed=1)
    cb = lambda **kw: None  # noqa: E731
    sim.on("topic", cb)
    sim.off("topic", cb)
    sim.off("topic", cb)  # absent callback: no-op, no raise
    sim.off("never-registered", cb)
    assert not sim.tracing


def test_off_leaves_other_subscribers():
    sim = Simulator(seed=1)
    hits_a, hits_b = [], []
    cb_a = lambda **kw: hits_a.append(kw)  # noqa: E731
    cb_b = lambda **kw: hits_b.append(kw)  # noqa: E731
    sim.on("topic", cb_a)
    sim.on("topic", cb_b)
    sim.off("topic", cb_a)
    sim.emit("topic", value=1)
    assert hits_a == [] and len(hits_b) == 1


# ----------------------------------------------------------------------
# TraceRecorder.detach
# ----------------------------------------------------------------------

def test_detach_stops_recording():
    sim, sched, recorder = make_traced()
    thread = sched.spawn("worker")
    thread.post(millis(1))
    sim.run(until=millis(5))
    recorder.detach()
    events_at_detach = {
        key: column.tolist() for key, column in recorder.columns.items()
    }
    assert events_at_detach["tr_time"]
    thread.post(millis(1))
    sim.run(until=millis(10))
    assert {
        key: column.tolist() for key, column in recorder.columns.items()
    } == events_at_detach


def test_detach_freezes_end_time():
    sim, sched, recorder = make_traced()
    sched.spawn("worker").post(millis(1))
    sim.run(until=millis(5))
    recorder.detach()
    frozen = recorder.end_time
    assert frozen == sim.now
    sim.run(until=millis(10))
    assert recorder.end_time == frozen
    assert recorder.detached


def test_detach_is_idempotent():
    sim, sched, recorder = make_traced()
    sim.run(until=millis(2))
    recorder.detach()
    first = recorder.end_time
    sim.run(until=millis(4))
    recorder.detach()
    assert recorder.end_time == first


def test_detach_restores_emit_fast_path():
    sim, _sched, recorder = make_traced()
    assert sim.tracing
    recorder.detach()
    assert not sim.tracing


def test_two_recorders_detach_independently():
    sim = Simulator(seed=3)
    sched = Scheduler(sim, make_cores([1.0]))
    first = TraceRecorder(sim)
    second = TraceRecorder(sim)
    thread = sched.spawn("worker")
    thread.post(millis(1))
    sim.run(until=millis(2))
    first.detach()
    thread.post(millis(1))
    sim.run(until=millis(4))
    assert sim.tracing  # second recorder still attached
    assert len(second.thread_columns("worker").times) > len(
        first.thread_columns("worker").times
    )
