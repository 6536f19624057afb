"""One duty clock per client and per device changes no result.

A client's main and worker threads, and a device's system services,
each get a lognormal CPU burst every period.  The loops share their
period and start together, so one ``PeriodicService`` ticks all of a
client's threads (and another all of a device's) instead of one per
thread.  The reference below restores the per-thread loops; every
session must come out the same either way: its digest, each thread's
state totals, and the scheduler's switch and preemption counts.
"""

import pytest

from repro.core.session import StreamingSession
from repro.device.device import Device
from repro.sim import Simulator, millis
from repro.sim.periodic import PeriodicService
from repro.validate import session_digest
from repro.video.player import VideoPlayer


def per_thread_client_loops(self):
    """``VideoPlayer._start_duty_loops`` with one service per thread."""
    rng = self.sim.random.stream("client.duty")
    period = millis(20)

    def start_loop(thread, duty):
        def tick():
            if self._done or not self.process.alive:
                service.stop()
                return
            burst = period * duty * rng.lognormvariate(0.0, 0.25)
            if burst >= 1.0:
                thread.post(burst, label="duty")

        service = PeriodicService(self.sim, period, tick, label="duty")
        service.fire()

    start_loop(self.main_thread, self.client.main_thread_duty)
    for thread in self.worker_threads:
        start_loop(thread, self.client.worker_duty)


def per_thread_system_loops(self, threads, duty):
    """``Device._system_duty_loop`` with one service per thread."""
    rng = self.sim.random.stream("device.system_duty")
    period = millis(25)

    def start_loop(thread):
        def tick():
            burst = period * duty * rng.lognormvariate(0.0, 0.3)
            if burst >= 1.0:
                thread.post(burst, label="sysduty")

        PeriodicService(self.sim, period, tick, label="sysduty").fire()

    for thread in threads:
        start_loop(thread)


def _run(device, pressure, seed):
    """One 3 s 480p60 session: its digest, per-thread state totals,
    switch and preemption counts, and how many events it scheduled."""
    scheduled = [0]
    original = Simulator.schedule

    def counted(sim, delay, fn, *args, label=""):
        scheduled[0] += 1
        return original(sim, delay, fn, *args, label=label)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "schedule", counted)
        session = StreamingSession(
            device=device, resolution="480p", frame_rate=60,
            pressure=pressure, duration_s=3.0, seed=seed,
        )
        result = session.run()
    sched = session.device.scheduler
    return {
        "digest": session_digest(result),
        "totals": [
            (thread.name, dict(thread.accounting.totals))
            for thread in sched.threads
        ],
        "context_switches": sched.context_switches,
        "preemptions": sched.preemption_count,
    }, scheduled[0]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("pressure", ["normal", "moderate", "low", "critical"])
@pytest.mark.parametrize("device", ["nokia1", "nexus5", "nexus6p"])
def test_shared_duty_clocks_match_per_thread_loops(device, pressure, seed):
    merged, merged_events = _run(device, pressure, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VideoPlayer, "_start_duty_loops", per_thread_client_loops)
        patch.setattr(Device, "_system_duty_loop", per_thread_system_loops)
        reference, reference_events = _run(device, pressure, seed)
    assert merged["context_switches"] > 0
    assert merged == reference
    # The reference really ran its per-thread loops.
    assert merged_events < reference_events
