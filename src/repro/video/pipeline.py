"""The decode/render pipeline: where frames are dropped.

Frames must be decoded (MediaCodec thread) and composited
(SurfaceFlinger thread) before their vsync deadline.  The player keeps
a 1× playback rate — "if the video client suffers from slow rendering,
it is forced to skip frames" (§4.1) — so a frame whose decode or render
completes late is dropped, and when the decoder falls far behind it
skips ahead at a fraction of the full decode cost (bitstream parsing
without reconstruction).

Decode cost scales with pixels per frame, genre complexity, the
device's decode-path multiplier, and the client's; it is paid in
reference CPU microseconds, so contention with kswapd (fair-share) and
mmcqd (preemption) — plus refaults of the codec working set — directly
translates into missed deadlines.  This is the paper's §5 causal chain,
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..kernel.manager import MemoryManager
from ..kernel.process import MemProcess
from ..sched.scheduler import Thread
from ..sim.bus import VIDEO_FRAME
from ..sim.clock import TICKS_PER_SECOND, Time, to_seconds
from ..sim.engine import Simulator
from .clients import ClientProfile
from .dash import Segment
from .encoding import RESOLUTIONS, VideoGenre

#: Reference decode cost: fixed overhead plus per-pixel work (ref us).
DECODE_BASE_US = 1200.0
DECODE_PER_PIXEL_US = 0.0175
#: Compositor cost per frame.
RENDER_BASE_US = 700.0
RENDER_PER_PIXEL_US = 0.0020
#: Relative cost of skipping (parse-only) a frame while catching up.
SKIP_COST_FRACTION = 0.15
#: Extra slack past the vsync deadline before a frame counts dropped:
#: one full period — a slightly late frame still catches the next vsync.
GRACE_FRACTION = 1.0
#: EWMA smoothing for the observed wall-clock decode time.
DECODE_EWMA_ALPHA = 0.2
#: Fraction of the client's hot working set touched per second of video.
#: A playing client revisits its working set every few hundred ms (codec
#: pools, JS heap, compositor state) — that is what makes the pages hot.
TOUCH_RATE_PER_S = 4.0
#: Decode-ahead margin: browsers pace the decoder just-in-time (power
#: and memory), staying only a few frames ahead of the render head —
#: which is why stalls longer than this margin drop frames.
DECODE_AHEAD_FRAMES = 4
#: Bytes per pixel of the decoded YUV frame the compositor reads.
YUV_BYTES_PER_PIXEL = 1.5


@dataclass
class PipelineStats:
    """Frame accounting for one playback session."""

    frames_processed: int = 0
    frames_rendered: int = 0
    dropped_decode_late: int = 0
    dropped_render_late: int = 0
    dropped_skipped: int = 0
    rebuffer_ticks: Time = 0
    render_times: List[float] = field(default_factory=list)

    @property
    def frames_dropped(self) -> int:
        return (
            self.dropped_decode_late
            + self.dropped_render_late
            + self.dropped_skipped
        )

    @property
    def drop_rate(self) -> float:
        if self.frames_processed == 0:
            return 0.0
        return self.frames_dropped / self.frames_processed

    def rendered_fps_series(
        self, bin_s: float = 1.0, start_s: float = 0.0
    ) -> List[float]:
        """Rendered frames per second, binned from ``start_s`` (usually
        the session launch time, the x-axis origin of Figures 14-17)."""
        relative = [t - start_s for t in self.render_times if t >= start_s]
        if not relative:
            return []
        n_bins = int(max(relative) / bin_s) + 1
        bins = [0.0] * n_bins
        for t in relative:
            bins[int(t / bin_s)] += 1
        return [count / bin_s for count in bins]


class RenderPipeline:
    """Decode + composite pipeline for one playback session."""

    def __init__(
        self,
        sim: Simulator,
        manager: MemoryManager,
        process: MemProcess,
        decoder_thread: Thread,
        renderer_thread: Thread,
        client: ClientProfile,
        genre: VideoGenre,
        device_decode_multiplier: float,
        next_segment: Callable[[], Optional[tuple]],
        on_finished: Callable[[], None],
    ) -> None:
        self.sim = sim
        self.manager = manager
        self.process = process
        self.decoder_thread = decoder_thread
        self.renderer_thread = renderer_thread
        self.client = client
        self.genre = genre
        self.device_decode_multiplier = device_decode_multiplier
        self._next_segment = next_segment
        self._on_finished = on_finished
        self.stats = PipelineStats()
        self._rng = sim.random.stream("video.decode")

        self._running = False
        self._stopped = False
        self._segment: Optional[Segment] = None
        self._fps = 30
        self._resolution = "480p"
        self._pixels = RESOLUTIONS["480p"].pixels
        self._frames_left_in_segment = 0
        self._deadline: Time = 0
        self._in_flight = 0  # decoded frames queued or being rendered
        self._waiting_pool = False
        self._waiting_media = False
        self._rebuffer_started: Optional[Time] = None
        self._draining = False
        #: EWMA of observed wall-clock decode time (ticks); the drop
        #: heuristic predicts with it, like a real player's pacer.
        self._decode_wall_est: Time = 0

    # ------------------------------------------------------------------
    @property
    def period(self) -> Time:
        return round(TICKS_PER_SECOND / self._fps)

    def set_encoding(self, resolution: str, fps: int) -> None:
        """Update per-frame costs (applies to subsequently played media)."""
        self._fps = fps
        self._resolution = resolution
        self._pixels = RESOLUTIONS[resolution].pixels

    def start(self) -> None:
        """Begin playback: deadlines anchor at the current time."""
        if self._running or self._stopped:
            return
        self._running = True
        self._deadline = self.sim.now + self.period
        self._advance()

    def stop(self) -> None:
        """Abort playback (crash or session teardown).

        Frames decoded but not yet presented will never display: they
        count as dropped, keeping the frame accounting exact."""
        self._stopped = True
        self._running = False
        if self._in_flight > 0:
            self.stats.dropped_render_late += self._in_flight
            self._in_flight = 0

    # ------------------------------------------------------------------
    # Decode loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if self._stopped:
            return
        if self._frames_left_in_segment <= 0 and not self._load_segment():
            return  # waiting for media, or finished
        pool = min(DECODE_AHEAD_FRAMES, self.client.decode_buffer_frames(self._fps))
        if self._in_flight >= pool:
            self._waiting_pool = True
            return
        self._decode_frame()

    def _load_segment(self) -> bool:
        item = self._next_segment()
        if item is None:
            self.enter_media_wait()
            return False  # player calls feed()/finish() later
        segment, resolution, fps = item
        self._segment = segment
        self.set_encoding(resolution, fps)
        self._frames_left_in_segment = max(1, round(segment.duration_s * fps))
        if self._rebuffer_started is not None:
            stall = self.sim.now - self._rebuffer_started
            self.stats.rebuffer_ticks += stall
            self._rebuffer_started = None
            # Playback resumes: shift the schedule by the stall.
            self._deadline = max(self._deadline, self.sim.now + self.period)
        return True

    def feed(self) -> None:
        """Player notification: new media arrived in the buffer."""
        if self._waiting_media and not self._stopped:
            self._waiting_media = False
            self._advance()

    def finish(self) -> None:
        """Player notification: no more media will arrive.  The session
        completes once the last in-flight frames have rendered."""
        if self._waiting_media and not self._stopped:
            self._waiting_media = False
            self._draining = True
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._draining and self._in_flight == 0 and not self._stopped:
            self._running = False
            self._stopped = True
            self._on_finished()

    def enter_media_wait(self) -> None:
        if not self._waiting_media:
            self._waiting_media = True
            if self._rebuffer_started is None:
                self._rebuffer_started = self.sim.now

    def _decode_frame(self) -> None:
        if self._stopped:
            return
        deadline = self._deadline
        grace = round(self.period * GRACE_FRACTION)
        predicted_finish = self.sim.now + self._decode_wall_est
        if predicted_finish > deadline + grace:
            # This frame cannot hit its vsync even if we start now: skip
            # ahead (parse-only) instead of paying full decode for
            # doomed frames — the player's 1×-rate pacer.
            self._skip_ahead(grace)
            return
        start = self.sim.now
        self.manager.touch(
            self.process,
            self.decoder_thread,
            self._touch_sample(),
            on_done=lambda: self._post_decode_work(deadline, start),
        )

    def _touch_sample(self) -> int:
        hot = self.process.pools.hot_total
        fraction = min(1.0, TOUCH_RATE_PER_S / self._fps)
        return max(32, round(hot * fraction))

    def _render_touch_sample(self) -> int:
        frame_pages = round(self._pixels * YUV_BYTES_PER_PIXEL / 4096)
        texture_pages = self.client.texture_pages(self._resolution)
        return max(16, frame_pages + round(texture_pages * 0.3))

    def _decode_cost_us(self) -> float:
        base = DECODE_BASE_US + DECODE_PER_PIXEL_US * self._pixels
        cost = (
            base
            * self.genre.complexity
            * self.device_decode_multiplier
            * self.client.decode_multiplier
        )
        return cost * self._rng.lognormvariate(0.0, 0.10)

    def _render_cost_us(self) -> float:
        base = RENDER_BASE_US + RENDER_PER_PIXEL_US * self._pixels
        return base * self._rng.lognormvariate(0.0, 0.08)

    def _post_decode_work(self, deadline: Time, start: Time) -> None:
        if self._stopped:
            return
        self.decoder_thread.post(
            self._decode_cost_us(),
            on_complete=lambda: self._decode_done(deadline, start),
            label="decode",
        )

    def _decode_done(self, deadline: Time, start: Time) -> None:
        if self._stopped:
            return
        wall = self.sim.now - start
        if self._decode_wall_est == 0:
            self._decode_wall_est = wall
        else:
            self._decode_wall_est = round(
                (1 - DECODE_EWMA_ALPHA) * self._decode_wall_est
                + DECODE_EWMA_ALPHA * wall
            )
        self._consume_frame()
        grace = round(self.period * GRACE_FRACTION)
        late = self.sim.now > deadline + grace
        if late:
            self.stats.dropped_decode_late += 1
        else:
            self._in_flight += 1
        if VIDEO_FRAME in self.sim.topics:
            self.sim.emit(
                VIDEO_FRAME,
                phase="decode",
                pipeline=self,
                in_flight=self._in_flight,
                late=late,
                count=1,
            )
        if not late:
            # Present at the frame's PTS, never earlier: playback stays
            # at 1x even when the decoder catches up after a stall.
            pts = max(self.sim.now, deadline - self.period)
            self.sim.schedule(
                pts - self.sim.now, self._start_render, deadline,
                label="render:vsync",
            )
        self._advance()

    def _start_render(self, deadline: Time) -> None:
        if self._stopped:
            return
        # Composition touches the decoded frame and a share of the
        # texture surfaces — under pressure these refault, stalling
        # the render path where no decode-ahead margin can help.
        self.manager.touch(
            self.process,
            self.renderer_thread,
            self._render_touch_sample(),
            on_done=lambda: self.renderer_thread.post(
                self._render_cost_us(),
                on_complete=lambda: self._render_done(deadline),
                label="render",
            ),
        )

    def _render_done(self, deadline: Time) -> None:
        if self._stopped:
            # stop() already counted every in-flight frame as dropped
            # and zeroed the counter; decrementing here would double-
            # account the frame and drive the counter negative.
            return
        self._in_flight -= 1
        grace = round(self.period * GRACE_FRACTION)
        late = self.sim.now > deadline + grace
        if late:
            self.stats.dropped_render_late += 1
        else:
            self.stats.frames_rendered += 1
            self.stats.render_times.append(to_seconds(self.sim.now))
        if VIDEO_FRAME in self.sim.topics:
            self.sim.emit(
                VIDEO_FRAME,
                phase="render",
                pipeline=self,
                in_flight=self._in_flight,
                late=late,
                count=1,
            )
        if self._waiting_pool:
            self._waiting_pool = False
            self._advance()
        self._maybe_finish()

    def _skip_ahead(self, grace: Time) -> None:
        """Drop frames at parse-only cost until the predicted decode
        completion of the next attempted frame lands inside its grace."""
        behind = self.sim.now + self._decode_wall_est - grace - self._deadline
        needed = int(behind // self.period) + 1
        to_skip = max(1, min(self._frames_left_in_segment, needed))
        cost = self._decode_cost_us() * SKIP_COST_FRACTION * to_skip
        self.stats.dropped_skipped += to_skip

        def done() -> None:
            if self._stopped:
                return
            self._advance()

        for _ in range(to_skip):
            self._consume_frame(advance_stats_only=True)
        if VIDEO_FRAME in self.sim.topics:
            self.sim.emit(
                VIDEO_FRAME,
                phase="skip",
                pipeline=self,
                in_flight=self._in_flight,
                late=True,
                count=to_skip,
            )
        self.decoder_thread.post(cost, on_complete=done, label="skip")

    def _consume_frame(self, advance_stats_only: bool = False) -> None:
        self.stats.frames_processed += 1
        self._frames_left_in_segment -= 1
        self._deadline += self.period
        if self._frames_left_in_segment <= 0 and not advance_stats_only:
            pass  # next _advance() will pull the following segment
