"""Per-session trace capture for arena scoring.

The scorers want quantities :class:`~repro.video.player.SessionResult`
does not carry directly — the first-render (startup) instant, freeze
time between consecutive rendered frames, and how long the device dwelt
at each pressure level.  Rather than widening ``SessionResult`` (and
bumping the cache schema), the arena subscribes to the simulator's
existing instrumentation topics:

* ``video.frame`` — every decode/render/skip pipeline event; render
  events that are not late are rendered frames, timestamped at emit;
* ``pressure.state`` — every pressure-level transition.

Every emit site is gated on its own topic, so subscribing to these two
makes only the video pipeline and the pressure monitor build payloads;
the scheduler keeps its wakeup fast path (only ``sched.state`` and
``sched.wakeup`` subscribers turn it off).  Handlers are read-only, so
an instrumented session's :class:`SessionResult` is bit-identical to a
bare one (the containment tests in ``tests/faults`` prove this property
for checkers; ``tests/arena`` proves it for the collector via the
differential oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..kernel.pressure import MemoryPressureLevel
from ..sim.bus import PRESSURE_STATE, VIDEO_FRAME
from ..sim.clock import Time, to_seconds
from ..sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..video.pipeline import VideoPipeline

#: A render-to-render gap beyond this many nominal frame periods is a
#: freeze (the threshold webrtc stats use is ~150 ms; two periods keeps
#: the definition frame-rate-relative the way snippet 1's freeze
#: normalization is).
FREEZE_GAP_PERIODS = 2.0


@dataclass(frozen=True)
class ArenaTrace:
    """What the collector distilled from one session (picklable)."""

    #: Absolute sim time of the first rendered frame, or None.
    first_render_s: Optional[float]
    #: Total rendered frames seen on the topic.
    rendered_frames: int
    #: Seconds of render-to-render gaps beyond the freeze threshold.
    freeze_s: float
    #: (level name, seconds) dwell per pressure level over the run,
    #: sorted by level severity; levels never entered are omitted.
    pressure_dwell: Tuple[Tuple[str, float], ...]


class TraceCollector:
    """Subscribes to ``video.frame`` and ``pressure.state`` and distills
    an :class:`ArenaTrace` when the session ends.

    ``nominal_fps`` anchors the freeze threshold; the collector tracks
    the pipeline's *current* frame period per render event, so sessions
    that adapt the encoded rate mid-stream measure freezes against the
    rate they were actually playing.
    """

    def __init__(self, sim: Simulator, nominal_fps: int) -> None:
        self.sim = sim
        self.nominal_fps = nominal_fps
        self._render_times: List[Time] = []
        self._render_periods: List[Time] = []
        #: (time, level) transitions, seeded with the t=0 Normal state.
        self._transitions: List[Tuple[Time, MemoryPressureLevel]] = [
            (sim.now, MemoryPressureLevel.NORMAL)
        ]
        sim.on(VIDEO_FRAME, self._on_frame)
        sim.on(PRESSURE_STATE, self._on_pressure)

    # ------------------------------------------------------------------
    def _on_frame(
        self, time: Time, phase: str, pipeline: "VideoPipeline",
        late: bool, **_payload: object,
    ) -> None:
        if phase != "render" or late:
            return
        self._render_times.append(time)
        self._render_periods.append(pipeline.period)

    def _on_pressure(
        self, time: Time, level: MemoryPressureLevel, **payload: object,
    ) -> None:
        self._transitions.append((time, level))

    # ------------------------------------------------------------------
    def finalize(self) -> ArenaTrace:
        """Distill the trace at the session's end (``sim.now``)."""
        freeze: Time = 0
        for index in range(1, len(self._render_times)):
            gap = self._render_times[index] - self._render_times[index - 1]
            threshold = round(
                FREEZE_GAP_PERIODS * self._render_periods[index - 1]
            )
            if gap > threshold:
                freeze += gap - threshold
        dwell = {}
        end = self.sim.now
        for index, (start, level) in enumerate(self._transitions):
            until = (
                self._transitions[index + 1][0]
                if index + 1 < len(self._transitions)
                else end
            )
            span = max(0, until - start)
            dwell[level] = dwell.get(level, 0) + span
        return ArenaTrace(
            first_render_s=(
                to_seconds(self._render_times[0])
                if self._render_times else None
            ),
            rendered_frames=len(self._render_times),
            freeze_s=to_seconds(freeze),
            pressure_dwell=tuple(
                (level.name, to_seconds(ticks))
                for level, ticks in sorted(dwell.items())
                if ticks > 0
            ),
        )
