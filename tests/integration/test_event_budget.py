"""A deterministic ceiling on the events one canonical session schedules.

The scheduler's cost grows with the events the simulator fires, so a
change that splits a shared clock back into per-thread loops (or adds
any other per-tick event) slows every session without changing a
result.  Counting ``Simulator.schedule`` calls catches that with no
timing: the count is a pure function of the code and the seed.
"""

from repro.experiments.parallel import SessionSpec, run_spec
from repro.sim import Simulator

#: The canonical Nexus 5 Moderate 720p30 10 s session (seed 7), the
#: moderate half of the perf gate's session pair.
CANONICAL = SessionSpec("nexus5", "720p", 30, "moderate", None, 10.0, 7)

#: Events it schedules with one duty clock per client and per device
#: (one ``PeriodicService`` per duty thread scheduled 19,508).
EVENT_CEILING = 15_495


def test_canonical_session_stays_within_its_event_budget(monkeypatch):
    scheduled = [0]
    original = Simulator.schedule

    def counted(sim, delay, fn, *args, label=""):
        scheduled[0] += 1
        return original(sim, delay, fn, *args, label=label)

    monkeypatch.setattr(Simulator, "schedule", counted)
    result = run_spec(CANONICAL)
    assert result.frames_rendered > 0
    assert scheduled[0] <= EVENT_CEILING
