"""Composite QoE objectives that score arena sessions.

Two scorers ship, deliberately of different shapes so the leaderboard
can show when they *disagree* (the paper's core point is that
network-centric objectives miss device-side damage):

:class:`AdditiveObjective`
    the classic linear ABR objective family (Yin et al.; also the shape
    of dash.js reward functions): mean perceptual quality of the played
    rungs, minus startup, rebuffering, ladder-switching, smoothness and
    crash penalties.  Measured in perceptual-quality points on a 0-100
    scale; can go negative — an unwatchable session should not round up
    to zero.

:class:`MultiplicativeObjective`
    a webrtc-stats-style formula: ``5 · freeze³ · resolution^0.3 ·
    fps^0.5 · delay`` over normalized factors in [0, 1], scaled by the
    fraction of the session survived.  Any factor collapsing to zero
    zeroes the score — one catastrophic axis cannot be bought back by
    the others.  Dimensionless in time: every temporal input enters as
    a fraction of session duration, so the score is invariant under a
    common scaling of all time-denominated metrics.

Both consume a :class:`SessionMetrics`, a flat frozen projection of a
:class:`~repro.video.player.SessionResult` plus the optional
:class:`~repro.arena.trace.ArenaTrace` — scorers never reach back into
simulator objects, which keeps them trivially testable with synthetic
metrics (the Hypothesis property suite in ``tests/arena`` does exactly
that: monotonicity in rebuffer seconds and switch count, the time-scale
invariance above, and cross-scorer ordering agreement on rebuffer-only
perturbations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..video.encoding import BITRATE_LADDER_KBPS, RESOLUTION_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..video.player import SessionResult
from .trace import ArenaTrace

#: Perceptual-quality log anchors: the ladder's cheapest and dearest rungs.
_PQ_FLOOR_KBPS = min(min(r.values()) for r in BITRATE_LADDER_KBPS.values())
_PQ_CEIL_KBPS = max(max(r.values()) for r in BITRATE_LADDER_KBPS.values())


def perceptual_quality(kbps: float) -> float:
    """Map a ladder bitrate to 0-100 perceptual-quality points.

    Log-scaled (diminishing returns per extra megabit, the standard
    assumption behind additive QoE models): the cheapest ladder rung
    scores 0, the dearest 100.  Monotone increasing in ``kbps``.
    """
    if kbps <= _PQ_FLOOR_KBPS:
        return 0.0
    span = math.log(_PQ_CEIL_KBPS / _PQ_FLOOR_KBPS)
    return 100.0 * min(1.0, math.log(kbps / _PQ_FLOOR_KBPS) / span)


@dataclass(frozen=True)
class SessionMetrics:
    """The flat, scorer-facing projection of one arena session."""

    #: Nominal media duration of the asset (seconds).
    duration_s: float
    #: Startup delay: launch to first rendered frame (seconds).
    startup_s: float
    #: Total playback stall attributed to an empty buffer (seconds).
    rebuffer_s: float
    #: Render-gap freeze time beyond the stall above (seconds).
    freeze_s: float
    #: Ladder switches over the session.
    switch_count: int
    #: Ladder bitrate of each played segment, in play order.
    played_kbps: Tuple[int, ...]
    #: Mean rendered frame rate over the session (0.0 if none rendered).
    mean_rendered_fps: float
    #: The representation's nominal frame rate.
    nominal_fps: int
    #: The representation's nominal resolution (ladder name).
    resolution: str
    #: Share of scheduled frames that never rendered, crash-inclusive.
    drop_rate: float
    crashed: bool
    #: Seconds survived before the crash (None if not crashed).
    crash_time_s: Optional[float]


def metrics_from(
    result: "SessionResult", trace: Optional[ArenaTrace] = None
) -> SessionMetrics:
    """Project a :class:`SessionResult` (+ optional trace) to metrics.

    Without a trace the two trace-only quantities degrade safely:
    ``freeze_s`` to zero and ``startup_s`` to zero for any session that
    rendered frames — or to the full duration for one that never did
    (the worst defensible value; a session with no first frame has no
    finite startup delay).
    """
    if trace is not None and trace.first_render_s is not None:
        startup_s = trace.first_render_s
    elif result.frames_rendered > 0:
        startup_s = 0.0
    else:
        startup_s = result.duration_s
    return SessionMetrics(
        duration_s=result.duration_s,
        startup_s=startup_s,
        rebuffer_s=result.rebuffer_s,
        freeze_s=trace.freeze_s if trace is not None else 0.0,
        switch_count=len(result.switch_log),
        played_kbps=tuple(result.played_bitrates_kbps),
        mean_rendered_fps=result.mean_rendered_fps,
        nominal_fps=result.fps,
        resolution=result.resolution,
        drop_rate=result.effective_drop_rate,
        crashed=result.crashed,
        crash_time_s=result.crash_time_s,
    )


@dataclass(frozen=True)
class QoEScore:
    """One objective's verdict on one session."""

    objective: str
    value: float
    #: Named intermediate terms, for the leaderboard's drill-down.
    components: Tuple[Tuple[str, float], ...]


class QoEObjective:
    """A scorer: :class:`SessionMetrics` in, :class:`QoEScore` out.

    Subclasses define ``name`` and :meth:`score`.  Contract (the
    property suite enforces it for the shipped pair): at fixed
    everything-else the score is monotone non-increasing in
    ``rebuffer_s`` and in ``switch_count``.
    """

    name: str = ""

    def score(self, metrics: SessionMetrics) -> QoEScore:
        raise NotImplementedError

    def __call__(self, metrics: SessionMetrics) -> QoEScore:
        return self.score(metrics)


class AdditiveObjective(QoEObjective):
    """Linear-penalty objective in perceptual-quality points (0-100
    scale, unbounded below)."""

    name = "additive"

    def __init__(
        self,
        startup_penalty: float = 1.0,
        rebuffer_penalty: float = 2.5,
        switch_penalty: float = 1.0,
        smoothness_penalty: float = 0.5,
        crash_penalty: float = 50.0,
    ) -> None:
        if min(startup_penalty, rebuffer_penalty, switch_penalty,
               smoothness_penalty, crash_penalty) < 0:
            raise ValueError("penalties must be non-negative")
        self.startup_penalty = startup_penalty
        self.rebuffer_penalty = rebuffer_penalty
        self.switch_penalty = switch_penalty
        self.smoothness_penalty = smoothness_penalty
        self.crash_penalty = crash_penalty

    def score(self, metrics: SessionMetrics) -> QoEScore:
        qualities = [perceptual_quality(k) for k in metrics.played_kbps]
        # The played rungs credit only frames that reached the screen:
        # on a device bottleneck the network-delivered bitrate is a lie.
        delivered = max(0.0, 1.0 - metrics.drop_rate)
        quality = (
            delivered * sum(qualities) / len(qualities) if qualities else 0.0
        )
        smoothness = sum(
            abs(b - a) for a, b in zip(qualities, qualities[1:])
        ) / max(1, len(qualities))
        startup = self.startup_penalty * metrics.startup_s
        rebuffer = self.rebuffer_penalty * (
            metrics.rebuffer_s + metrics.freeze_s
        )
        switching = self.switch_penalty * metrics.switch_count
        smooth = self.smoothness_penalty * smoothness
        crash = self.crash_penalty if metrics.crashed else 0.0
        value = quality - startup - rebuffer - switching - smooth - crash
        return QoEScore(
            objective=self.name,
            value=value,
            components=(
                ("quality", quality),
                ("startup_penalty", startup),
                ("rebuffer_penalty", rebuffer),
                ("switch_penalty", switching),
                ("smoothness_penalty", smooth),
                ("crash_penalty", crash),
            ),
        )


class MultiplicativeObjective(QoEObjective):
    """Factor-product objective on a 0-5 scale.

    ``5 · freeze³ · resolution^0.3 · fps^0.5 · delay · survival`` with
    every factor normalized to [0, 1].  Time enters only as fractions
    of ``duration_s``, so scaling every time-denominated field by a
    common positive constant leaves the score unchanged.
    """

    name = "multiplicative"

    FREEZE_EXPONENT = 3.0
    RESOLUTION_EXPONENT = 0.3
    FPS_EXPONENT = 0.5

    def score(self, metrics: SessionMetrics) -> QoEScore:
        duration = max(metrics.duration_s, 1e-9)
        stall_fraction = min(
            1.0, max(0.0, (metrics.rebuffer_s + metrics.freeze_s) / duration)
        )
        freeze_norm = 1.0 - stall_fraction
        try:
            rung = RESOLUTION_ORDER.index(metrics.resolution) + 1
        except ValueError:
            rung = 1
        resolution_norm = rung / len(RESOLUTION_ORDER)
        fps_norm = (
            min(1.0, max(0.0, metrics.mean_rendered_fps / metrics.nominal_fps))
            if metrics.nominal_fps > 0 else 0.0
        )
        delay_norm = 1.0 - min(1.0, max(0.0, metrics.startup_s / duration))
        if metrics.crashed:
            survived = metrics.crash_time_s if metrics.crash_time_s else 0.0
            survival = min(1.0, max(0.0, survived / duration))
        else:
            survival = 1.0
        value = (
            5.0
            * freeze_norm ** self.FREEZE_EXPONENT
            * resolution_norm ** self.RESOLUTION_EXPONENT
            * fps_norm ** self.FPS_EXPONENT
            * delay_norm
            * survival
        )
        return QoEScore(
            objective=self.name,
            value=value,
            components=(
                ("freeze_norm", freeze_norm),
                ("resolution_norm", resolution_norm),
                ("fps_norm", fps_norm),
                ("delay_norm", delay_norm),
                ("survival", survival),
            ),
        )


#: The shipped objectives, keyed by name, in leaderboard column order.
OBJECTIVES: Dict[str, QoEObjective] = {
    objective.name: objective
    for objective in (AdditiveObjective(), MultiplicativeObjective())
}


def score_all(metrics: SessionMetrics) -> Dict[str, QoEScore]:
    """Every shipped objective's verdict on one session."""
    return {name: obj.score(metrics) for name, obj in OBJECTIVES.items()}
