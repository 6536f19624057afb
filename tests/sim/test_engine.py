"""Unit tests for the discrete-event simulator engine."""

import pytest

from repro.sim import SimulationError, Simulator


def test_schedule_and_run_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(20, fired.append, "b")
    sim.schedule(10, fired.append, "a")
    sim.schedule(30, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_run_until_horizon_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run(until=150)
    assert fired == ["early", "late"]
    assert sim.now == 150


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(5, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 15


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, 1)
    sim.schedule(2, sim.stop)
    sim.schedule(3, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(5, fired.append, "x")
    sim.cancel(event)
    sim.cancel(event)  # idempotent
    sim.cancel(None)  # accepted
    sim.run()
    assert fired == []


def test_hooks_receive_time_and_payload():
    sim = Simulator()
    seen = []
    sim.on("pressure.signal", lambda time, level: seen.append((time, level)))
    sim.schedule(7, lambda: sim.emit("pressure.signal", level=42))
    sim.run()
    assert seen == [(7, 42)]


def test_pending_events_counts_live_only():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    event = sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.cancel(event)
    assert sim.pending_events == 1


def test_stop_mid_batch_requeues_same_time_events():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "a")
    sim.schedule(5, sim.stop)
    sim.schedule(5, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["a", "b"]


def test_cancel_within_same_time_batch():
    sim = Simulator()
    fired = []
    victim = sim.schedule(5, fired.append, "victim")
    sim.schedule(5, lambda: sim.cancel(victim))
    sim.schedule(5, fired.append, "after")
    # FIFO order means the canceller runs between the other two... but
    # `victim` was scheduled first, so it fires before cancellation.
    sim.run()
    assert fired == ["victim", "after"]
    assert sim.pending_events == 0


def test_cancel_later_batch_member_before_it_fires():
    sim = Simulator()
    fired = []
    victim_box = []
    sim.schedule(5, lambda: sim.cancel(victim_box[0]))
    victim_box.append(sim.schedule(5, fired.append, "victim"))
    sim.schedule(5, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.pending_events == 0


def test_pending_events_visible_to_batch_callbacks():
    """Regression (Event.counted / pop_ready audit): a callback running
    inside a same-timestamp batch must still see the batch's unfired
    live members in pending_events — they have been popped, but they
    are pending by any observable definition."""
    sim = Simulator()
    seen = []
    sim.schedule(4, lambda: seen.append(sim.pending_events))
    sim.schedule(4, lambda: seen.append(sim.pending_events))
    sim.schedule(9, lambda: seen.append(sim.pending_events))
    sim.run()
    # First callback: one batch-mate unfired + the t=9 event = 2.
    # Second: just the t=9 event.  Third: nothing left.
    assert seen == [2, 1, 0]


def test_cancel_mid_batch_updates_pending_immediately():
    sim = Simulator()
    observed = []
    victim_box = []

    def canceller():
        before = sim.pending_events
        sim.cancel(victim_box[0])
        observed.append((before, sim.pending_events))

    sim.schedule(5, canceller)
    victim_box.append(sim.schedule(5, lambda: observed.append("victim")))
    sim.run()
    # The victim was visible before cancellation and gone right after.
    assert observed == [(1, 0)]
    assert sim.pending_events == 0


def test_stop_mid_batch_drops_cancelled_member_from_count():
    """A batch member cancelled by an earlier same-batch event must not
    linger in the pending count when the engine stops before reaching
    it (it is retired, not requeued)."""
    sim = Simulator()
    fired = []
    victim_box = []

    def cancel_and_stop():
        sim.cancel(victim_box[0])
        sim.stop()

    sim.schedule(5, cancel_and_stop)
    victim_box.append(sim.schedule(5, fired.append, "victim"))
    sim.schedule(5, fired.append, "kept")
    sim.run()
    assert fired == []
    assert sim.pending_events == 1  # only "kept" survives
    sim.run()
    assert fired == ["kept"]
    assert sim.pending_events == 0


def test_emit_skips_work_with_no_subscribers():
    sim = Simulator()
    assert sim.tracing is False
    sim.emit("nobody.listens", value=1)  # must be a cheap no-op
    sim.on("kswapd.wake", lambda time: None)
    assert sim.tracing is True


def test_topics_tracks_subscribed_topics_live():
    sim = Simulator()
    topics = sim.topics
    assert "kswapd.wake" not in topics
    first = lambda time: None  # noqa: E731
    second = lambda time: None  # noqa: E731
    sim.on("kswapd.wake", first)
    sim.on("kswapd.wake", second)
    sim.on("kswapd.sleep", first)
    assert set(topics) == {"kswapd.wake", "kswapd.sleep"}  # the same view, kept current
    sim.off("kswapd.wake", first)
    assert "kswapd.wake" in topics  # one "kswapd.wake" subscriber is left
    sim.off("kswapd.wake", second)
    assert set(topics) == {"kswapd.sleep"}
    sim.off("kswapd.sleep", first)
    assert not topics and not sim.tracing


# ----------------------------------------------------------------------
# Subscribe contract: Simulator.on checks a handler against the topic's
# declared fields (repro.sim.bus.TOPIC_FIELDS) when it subscribes.
# ----------------------------------------------------------------------
def test_on_rejects_an_undeclared_topic():
    sim = Simulator()
    with pytest.raises(ValueError, match="undeclared emit-bus topic 'sched.swtich'"):
        sim.on("sched.swtich", lambda time, thread, core: None)
    assert not sim.tracing


def _timed(fn):
    """A timing wrapper shaped like perfbench's ``--trace 1`` hook."""
    def call(*args, **kwargs):
        return fn(*args, **kwargs)
    call.__wrapped__ = fn
    return call


@pytest.mark.parametrize("handler", [
    lambda time, thread: None,  # missing the declared "core"
    lambda thread, core: None,  # cannot take "time"
    lambda time, thread, core, /: None,  # positional-only: delivery is by name
    _timed(lambda time, thread: None),  # checked as the wrapper's target
], ids=["missing-core", "no-time", "positional-only", "wrapped-missing-core"])
def test_on_rejects_a_handler_missing_a_declared_field(handler):
    sim = Simulator()
    with pytest.raises(TypeError, match="cannot take 'sched.switch' deliveries"):
        sim.on("sched.switch", handler)
    assert not sim.tracing


def test_on_rejects_a_handler_naming_an_undeclared_field():
    sim = Simulator()
    # The default would hide the typo: no delivery ever carries "cpu".
    with pytest.raises(TypeError, match="names 'cpu'"):
        sim.on("sched.switch", lambda time, thread, core, cpu=None: None)
    with pytest.raises(TypeError, match="names 'level'"):
        sim.on("kswapd.wake", lambda time, level=None, **_payload: None)
    assert not sim.tracing


class _Switches:
    def __init__(self):
        self.seen = []

    def on_switch(self, time, thread, core):
        self.seen.append((time, thread, core))


def test_on_accepts_catch_alls_bound_methods_and_wrappers():
    sim = Simulator()
    caught = []
    switches = _Switches()
    wrapped = _Switches()
    sim.on("sched.switch", lambda time, **payload: caught.append(payload))
    sim.on("sched.switch", switches.on_switch)
    sim.on("sched.switch", _timed(wrapped.on_switch))
    sim.schedule(3, lambda: sim.emit("sched.switch", thread="t", core=1))
    sim.run()
    assert caught == [{"thread": "t", "core": 1}]
    assert switches.seen == wrapped.seen == [(3, "t", 1)]
