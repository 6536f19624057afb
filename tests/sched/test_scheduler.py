"""Unit tests for the preemptive priority scheduler."""

import pytest

from repro.sim import Simulator, millis
from repro.sched import SchedClass, Scheduler, ThreadState, make_cores


def make_sched(n_cores=1, freq=1.0, quantum=millis(4)):
    sim = Simulator(seed=1)
    sched = Scheduler(sim, make_cores([freq] * n_cores), quantum=quantum)
    return sim, sched


def test_single_thread_runs_work_to_completion():
    sim, sched = make_sched()
    thread = sched.spawn("worker")
    done = []
    thread.post(1000, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [1000]
    assert thread.state is ThreadState.SLEEPING
    assert thread.time_in(ThreadState.RUNNING) == 1000


def test_work_speed_scales_with_core_frequency():
    sim, sched = make_sched(freq=2.0)
    thread = sched.spawn("worker")
    done = []
    thread.post(1000, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [500]


def test_fifo_work_items_run_in_order():
    sim, sched = make_sched()
    thread = sched.spawn("worker")
    order = []
    thread.post(100, on_complete=lambda: order.append("a"))
    thread.post(100, on_complete=lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b"]


def test_two_threads_one_core_round_robin():
    sim, sched = make_sched(quantum=millis(1))
    a = sched.spawn("a")
    b = sched.spawn("b")
    finish = {}
    a.post(millis(2) * 1.0, on_complete=lambda: finish.setdefault("a", sim.now))
    b.post(millis(2) * 1.0, on_complete=lambda: finish.setdefault("b", sim.now))
    sim.run()
    # Both finish within the 4ms the combined work requires; interleaved.
    assert finish["a"] < finish["b"]
    assert finish["b"] == millis(4)
    assert a.time_in(ThreadState.RUNNING) == millis(2)
    # The thread that waited accumulated runnable time.
    waited = b.time_in(ThreadState.RUNNABLE) + b.time_in(
        ThreadState.RUNNABLE_PREEMPTED
    )
    assert waited == millis(2)


def test_two_cores_run_in_parallel():
    sim, sched = make_sched(n_cores=2)
    a = sched.spawn("a")
    b = sched.spawn("b")
    finish = {}
    a.post(1000, on_complete=lambda: finish.setdefault("a", sim.now))
    b.post(1000, on_complete=lambda: finish.setdefault("b", sim.now))
    sim.run()
    assert finish == {"a": 1000, "b": 1000}


def test_higher_class_preempts_lower():
    sim, sched = make_sched()
    fg = sched.spawn("fg", SchedClass.FOREGROUND)
    io = sched.spawn("io", SchedClass.IO)
    fg.post(millis(10) * 1.0)
    # Wake the IO thread mid-slice of the foreground thread.
    sim.schedule(millis(2), io.post, millis(3) * 1.0)
    sim.run()
    # IO ran immediately at wakeup: finished at 2ms + 3ms.
    assert io.time_in(ThreadState.RUNNING) == millis(3)
    assert io.time_in(ThreadState.RUNNABLE) == 0
    assert fg.time_in(ThreadState.RUNNABLE_PREEMPTED) == millis(3)
    assert fg.preemptions_suffered == 1
    assert sim.now == millis(13)


def test_same_class_does_not_preempt_midslice():
    sim, sched = make_sched(quantum=millis(4))
    a = sched.spawn("a")
    b = sched.spawn("b")
    a.post(millis(4) * 1.0)
    sim.schedule(millis(1), b.post, millis(1) * 1.0)
    sim.run()
    # b waits until a's quantum/work finishes at 4ms.
    assert b.time_in(ThreadState.RUNNABLE) == millis(3)


def test_background_class_starved_by_foreground():
    sim, sched = make_sched(quantum=millis(1))
    fg = sched.spawn("fg", SchedClass.FOREGROUND)
    bg = sched.spawn("bg", SchedClass.BACKGROUND)
    bg.post(millis(1) * 1.0)
    fg.post(millis(5) * 1.0)
    sim.run()
    # Background only runs after foreground finishes entirely.
    assert bg.time_in(ThreadState.RUNNING) == millis(1)
    assert sim.now == millis(6)


def test_io_wait_blocks_until_completion():
    sim, sched = make_sched()
    thread = sched.spawn("worker")
    events = []

    def start_io():
        events.append(("issue", sim.now))
        sim.schedule(5000, sched.io_complete, thread)

    thread.post(1000, on_complete=lambda: events.append(("cpu1", sim.now)))
    thread.post_io(start_io, on_complete=lambda: events.append(("io", sim.now)))
    thread.post(1000, on_complete=lambda: events.append(("cpu2", sim.now)))
    sim.run()
    assert events == [
        ("cpu1", 1000),
        ("issue", 1000),
        ("io", 6000),
        ("cpu2", 7000),
    ]
    assert thread.time_in(ThreadState.UNINTERRUPTIBLE) == 5000


def test_kill_running_thread_frees_core():
    sim, sched = make_sched()
    victim = sched.spawn("victim")
    other = sched.spawn("other")
    victim.post(millis(100) * 1.0)
    other.post(millis(1) * 1.0)
    sim.schedule(millis(2), sched.kill, victim)
    sim.run()
    assert victim.state is ThreadState.DEAD
    assert other.time_in(ThreadState.RUNNING) == millis(1)


def test_kill_queued_thread_removes_from_runqueue():
    sim, sched = make_sched()
    runner = sched.spawn("runner")
    queued = sched.spawn("queued")
    runner.post(millis(5) * 1.0)
    queued.post(millis(5) * 1.0)
    sim.schedule(millis(1), sched.kill, queued)
    sim.run()
    assert queued.state is ThreadState.DEAD
    assert queued.time_in(ThreadState.RUNNING) == 0
    assert sim.now == millis(5)


def test_state_times_partition_lifetime():
    sim, sched = make_sched(quantum=millis(1))
    threads = [sched.spawn(f"t{i}") for i in range(3)]
    for thread in threads:
        thread.post(millis(3) * 1.0)
    sim.run()
    for thread in threads:
        total = sum(
            thread.time_in(state)
            for state in ThreadState
        )
        assert total == sim.now


def test_migration_counted_when_core_changes():
    sim, sched = make_sched(n_cores=2)
    hog_a = sched.spawn("hog_a")
    hog_b = sched.spawn("hog_b")
    mover = sched.spawn("mover")
    # Mover runs on some core first.
    mover.post(1000)
    sim.run()
    first_core = mover.last_core
    # Occupy mover's previous core, forcing it to the other one.
    hog = hog_a if first_core == sched.cores[0].index else hog_b
    hog.post(millis(50) * 1.0)
    # Occupy via the specific core by affinity: hog has no affinity yet, so
    # just fill both cores and check accounting stays consistent.
    mover.post(1000)
    sim.run()
    assert mover.migrations in (0, 1)
    assert mover.time_in(ThreadState.RUNNING) == 2000


def test_empty_core_list_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Scheduler(sim, [])


def test_invalid_work_amount_rejected():
    sim, sched = make_sched()
    thread = sched.spawn("t")
    with pytest.raises(ValueError):
        thread.post(0)
