"""§5 root-cause profiling experiments: Tables 4-5, Figures 13-15.

Each run attaches a :class:`TraceRecorder` (the Perfetto analog) to a
device before streaming, then answers the paper's queries:

* Table 4 — video-client thread state times, Normal vs Moderate;
* top running threads — kswapd's rise from background noise to the
  busiest thread on the device;
* Figure 13 — kswapd's own state breakdown;
* Table 5 — preemptions of video threads by mmcqd;
* Figure 14 — rendered FPS and lmkd CPU utilization through a crash;
* Figure 15 — rendered FPS and cumulative process kills under organic
  background-app pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.session import DEVICE_FACTORIES, StreamingSession
from ..sched.scheduler import SchedClass
from ..sched.states import ThreadState
from ..sim.bus import PROCESS_KILL
from ..sim.clock import seconds
from ..trace.analysis import (
    PreemptionStats,
    cpu_utilization_series,
    preemption_stats,
    state_breakdown,
    state_times,
    top_running_threads,
)
from ..trace.recorder import TraceRecorder
from ..trace.replay import VIDEO_THREAD_PREFIXES, is_video_thread
from ..video.encoding import default_video

__all__ = [
    "VIDEO_THREAD_PREFIXES",
    "is_video_thread",
    "ProfiledRun",
    "profiled_run",
    "table4_thread_states",
    "fig13_kswapd_states",
    "table5_preemptions",
    "fig14_crash_timeline",
    "fig15_organic_timeline",
]

#: The paper's §5 configuration: 480p at 60 FPS on the Nokia 1.
PROFILE_RESOLUTION = "480p"
PROFILE_FPS = 60


@dataclass
class ProfiledRun:
    """One traced playback session and its derived statistics.

    ``playback_started`` is False when the session died during the
    pressure ramp and streaming never began: the recorder is then an
    explicitly-empty placeholder (nothing was there to record), not a
    silently-blank trace of the playback window.
    """

    pressure: str
    recorder: TraceRecorder
    result: object
    kill_events: List[Tuple[float, str]] = field(default_factory=list)
    playback_started: bool = True

    def video_state_times(self) -> Dict[ThreadState, float]:
        return state_times(self.recorder, is_video_thread)

    def top_threads(self, limit: int = 10) -> List[Tuple[str, float]]:
        return top_running_threads(self.recorder, limit=limit)

    def kswapd_breakdown(self) -> Dict[ThreadState, float]:
        return state_breakdown(self.recorder, "kswapd0")

    def mmcqd_preemptions(self) -> Optional[PreemptionStats]:
        for stats in preemption_stats(self.recorder, is_video_thread):
            if stats.victor == "mmcqd":
                return stats
        return None

    def lmkd_cpu_series(self) -> List[Tuple[float, float]]:
        return cpu_utilization_series(self.recorder, "lmkd")

    def fps_series(self) -> List[float]:
        return self.result.fps_series


def profiled_run(
    pressure: str,
    device: str = "nokia1",
    resolution: str = PROFILE_RESOLUTION,
    fps: int = PROFILE_FPS,
    duration_s: float = 30.0,
    seed: int = 11,
    organic_apps: int = 0,
    demote_mmcqd: bool = False,
) -> ProfiledRun:
    """Stream once with tracing attached; return the profiled run.

    ``demote_mmcqd`` drops the I/O daemon into the foreground class —
    the §5/§7 ablation: without its elevated priority mmcqd can no
    longer preempt video threads mid-slice.
    """
    dev = DEVICE_FACTORIES[device](seed=seed)
    if demote_mmcqd:
        dev.mmcqd.thread.sched_class = SchedClass.FOREGROUND
    kills: List[Tuple[float, str]] = []
    dev.sim.on(
        PROCESS_KILL,
        lambda time, process, reason: kills.append((time / 1e6, process.name)),
    )
    session = StreamingSession(
        device=dev,
        asset=default_video(duration_s=duration_s),
        resolution=resolution,
        frame_rate=fps,
        pressure=pressure,
        duration_s=duration_s,
        organic_apps=organic_apps,
    )
    # Attach the recorder when playback begins so the trace covers the
    # streaming session itself, not the pressure ramp-up — matching the
    # paper, which records Perfetto traces over the video run.
    holder: List[TraceRecorder] = []
    result = session.run(
        on_playback_start=lambda: holder.append(TraceRecorder(dev.sim))
    )
    if holder:
        recorder = holder[0]
    else:
        # Playback never began (the ramp killed the session first), so
        # there is no streaming window to profile.  Hand back an
        # explicitly-empty recorder instead of attaching one after the
        # fact — the old fallback recorded nothing but looked attached.
        recorder = TraceRecorder(dev.sim)
    recorder.detach()
    return ProfiledRun(
        pressure=pressure,
        recorder=recorder,
        result=result,
        kill_events=kills,
        playback_started=bool(holder),
    )


def table4_thread_states(
    duration_s: float = 30.0,
    repetitions: int = 3,
    device: str = "nokia1",
) -> Dict[str, Dict[ThreadState, float]]:
    """Table 4: mean video-thread state times, Normal vs Moderate.

    Values are normalised to seconds of thread-state time **per second
    of session**, because Moderate sessions can crash early: without
    the normalisation a shorter session would report less of every
    state and mask the paper's effect.
    """
    output: Dict[str, Dict[ThreadState, float]] = {}
    for pressure in ("normal", "moderate"):
        totals = {state: 0.0 for state in ThreadState}
        for rep in range(repetitions):
            run = profiled_run(
                pressure, device=device, duration_s=duration_s, seed=11 + rep
            )
            span = max(run.result.wall_span_s, 1e-9)
            for state, value in run.video_state_times().items():
                totals[state] += value / span
        output[pressure] = {
            state: value / repetitions for state, value in totals.items()
        }
    return output


def fig13_kswapd_states(
    duration_s: float = 30.0,
    device: str = "nokia1",
    seed: int = 11,
    repetitions: int = 3,
) -> Dict[str, Dict[ThreadState, float]]:
    """Figure 13: kswapd state fractions (mean over seeds), Normal vs
    Moderate — per-run reclaim intensity varies a lot with the random
    arrivals, so the figure averages several runs."""
    output: Dict[str, Dict[ThreadState, float]] = {}
    for pressure in ("normal", "moderate"):
        totals = {state: 0.0 for state in ThreadState}
        for rep in range(repetitions):
            run = profiled_run(
                pressure, device=device, duration_s=duration_s,
                seed=seed + rep,
            )
            for state, value in run.kswapd_breakdown().items():
                totals[state] += value
        output[pressure] = {
            state: value / repetitions for state, value in totals.items()
        }
    return output


def table5_preemptions(
    duration_s: float = 30.0,
    device: str = "nokia1",
    seed: int = 11,
) -> Dict[str, Optional[PreemptionStats]]:
    """Table 5: mmcqd preemption statistics, Normal vs Moderate."""
    return {
        pressure: profiled_run(
            pressure, device=device, duration_s=duration_s, seed=seed
        ).mmcqd_preemptions()
        for pressure in ("normal", "moderate")
    }


def fig14_crash_timeline(
    duration_s: float = 40.0,
    device: str = "nokia1",
    seed: int = 13,
) -> ProfiledRun:
    """Figure 14: a Moderate-pressure session through its crash, with
    the rendered FPS and lmkd CPU-utilization series."""
    return profiled_run(
        "moderate", device=device, duration_s=duration_s, seed=seed
    )


def fig15_organic_timeline(
    duration_s: float = 40.0,
    device: str = "nokia1",
    seed: int = 17,
) -> Dict[str, ProfiledRun]:
    """Figure 15: rendered FPS and process kills under organic pressure
    (8 background apps) versus no background apps."""
    return {
        "normal": profiled_run(
            "normal", device=device, duration_s=duration_s, seed=seed
        ),
        "organic_moderate": profiled_run(
            "normal", device=device, duration_s=duration_s, seed=seed,
            organic_apps=8,
        ),
    }
