"""Recorder lifecycle of ``profiled_run``: the trace must cover the
playback window (attach at playback start, detach at return), and a
session the pressure ramp kills before playback must yield an honest
empty trace, not an accidentally-late one."""

from repro.experiments import trace_experiments
from repro.experiments.trace_experiments import profiled_run


def test_recorder_detached_and_covers_playback():
    run = profiled_run("normal", duration_s=2.0, seed=7)
    assert run.playback_started
    assert run.recorder.detached
    assert run.recorder.end_time > run.recorder.start_time
    assert run.recorder.transition_count  # playback produced events
    # The kill-log hook outlives the recorder, so the sim may still be
    # tracing — but the recorder's own subscriptions are gone.
    sim = run.recorder.sim
    assert run.recorder._on_state not in sim._hooks.get("sched.state", [])


def test_playback_never_started_yields_empty_trace(monkeypatch):
    real_session = trace_experiments.StreamingSession

    class RampKilledSession(real_session):  # type: ignore[misc,valid-type]
        """A session whose playback never begins: the callback that
        would attach the recorder is simply never invoked."""

        def run(self, on_playback_start=None, **kwargs):
            return super().run(on_playback_start=None, **kwargs)

    monkeypatch.setattr(
        trace_experiments, "StreamingSession", RampKilledSession
    )
    run = profiled_run("normal", duration_s=2.0, seed=7)
    assert not run.playback_started
    assert run.recorder.detached
    # The fallback recorder is explicitly empty — it observed nothing.
    assert run.recorder.transition_count == 0
    assert run.recorder.columns["pre_time"].size == 0
    assert run.recorder.start_time == run.recorder.end_time
