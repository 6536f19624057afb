"""The video client: fetch loop, memory footprint, playback, crashes.

A :class:`VideoPlayer` is one client app (Firefox / Chrome / ExoPlayer
profile) streaming one DASH asset on one simulated device:

* it **allocates real simulated memory** — platform base footprint,
  decoded-frame pool, compositor textures, the playback buffer's bytes,
  and steady allocation churn — which is how streaming itself applies
  memory pressure (Figure 8's PSS growth with resolution and fps);
* its threads (main, MediaCodec, SurfaceFlinger) contend with kswapd
  and mmcqd under pressure, producing frame drops (§5);
* lmkd or the OOM killer can kill it — the client crash of Tables 2/3.

The player exposes ``set_representation`` for §6-style adaptation and
accepts an optional ABR controller consulted before each fetch and on
every OnTrimMemory signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..device.device import Device
from ..kernel.pressure import MemoryPressureLevel
from ..sched.scheduler import SchedClass
from ..sim.bus import SESSION_END
from ..sim.clock import Time, millis, to_seconds
from ..sim.periodic import PeriodicService
from .buffer import DEFAULT_CAPACITY_S, PlaybackBuffer
from .clients import ClientProfile, firefox
from .dash import Manifest, Representation
from .encoding import VideoAsset
from .network import lan_link
from .pipeline import RenderPipeline
from .server import VideoServer

#: Playback begins once this much media is buffered (or all of it).
START_BUFFER_S = 4.0
#: Period of the allocation-churn and PSS-sampling loops.
CHURN_PERIOD = millis(500)
PSS_SAMPLE_PERIOD = millis(250)


def bytes_to_pages(size_bytes: int) -> int:
    return max(1, math.ceil(size_bytes / 4096))


@dataclass
class SessionResult:
    """Everything measured from one streaming session."""

    device_name: str
    client_name: str
    resolution: str
    fps: int
    genre: str
    duration_s: float
    frames_processed: int = 0
    frames_rendered: int = 0
    frames_dropped: int = 0
    dropped_decode_late: int = 0
    dropped_render_late: int = 0
    dropped_skipped: int = 0
    drop_rate: float = 0.0
    crashed: bool = False
    crash_reason: str = ""
    crash_time_s: Optional[float] = None
    rebuffer_s: float = 0.0
    #: Device-wide kill counts over the session (any victim process).
    lmkd_kills: int = 0
    oom_kills: int = 0
    #: Wall-clock span of the session, launch to finalize (seconds).
    wall_span_s: float = 0.0
    pss_series: List[Tuple[float, float]] = field(default_factory=list)
    fps_series: List[float] = field(default_factory=list)
    signals: List[Tuple[float, MemoryPressureLevel]] = field(default_factory=list)
    switch_log: List[Tuple[float, str, int]] = field(default_factory=list)
    #: Ladder bitrate of each segment as it started playing.
    played_bitrates_kbps: List[int] = field(default_factory=list)

    @property
    def pss_mean_mb(self) -> float:
        if not self.pss_series:
            return 0.0
        return sum(v for _, v in self.pss_series) / len(self.pss_series)

    @property
    def pss_max_mb(self) -> float:
        return max((v for _, v in self.pss_series), default=0.0)

    @property
    def pss_min_mb(self) -> float:
        return min((v for _, v in self.pss_series), default=0.0)

    @property
    def mean_rendered_fps(self) -> float:
        """Mean of the per-second rendered-FPS bins.

        Defined behavior at the edges: a session that never rendered a
        frame (e.g. killed at Critical pressure before reaching steady
        state) has an empty ``fps_series`` and reports exactly 0.0 —
        never a ZeroDivisionError, never a stale value from a previous
        representation.
        """
        if not self.fps_series:
            return 0.0
        return sum(self.fps_series) / len(self.fps_series)

    @property
    def effective_drop_rate(self) -> float:
        """Drop rate over the frames *scheduled* for the full session:
        a crash makes every unplayed frame a dropped frame (this is the
        quantity behind the paper's ~100% bars at Critical, where runs
        were 'either unplayable or the video client crashed').

        Defined behavior at the edges: zero rendered frames always
        yields 1.0 for any session with a positive frame schedule —
        including the degenerate case where ``duration_s * fps`` rounds
        to zero but the session still crashed or processed frames, which
        previously reported a perfect 0.0.  A genuinely empty schedule
        (no duration, nothing processed, no crash) is 0.0.
        """
        due = round(self.duration_s * self.fps)
        if due <= 0:
            # Degenerate schedule: fall back on what actually happened
            # rather than declaring a flawless session.
            if self.crashed or self.frames_processed > 0:
                if self.frames_rendered == 0:
                    return 1.0
                return self.drop_rate
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.frames_rendered / due))


class VideoPlayer:
    """One streaming client session on a device."""

    def __init__(
        self,
        device: Device,
        asset: VideoAsset,
        resolution: str,
        fps: int,
        client: Optional[ClientProfile] = None,
        link=None,
        buffer_capacity_s: float = DEFAULT_CAPACITY_S,
        abr=None,
    ) -> None:
        self.device = device
        self.sim = device.sim
        self.manager = device.memory
        self.asset = asset
        self.client = client or firefox()
        self.manifest = Manifest(asset, self.sim.random)
        self.server = VideoServer(self.sim, self.manifest, link or lan_link())
        self.buffer = PlaybackBuffer(buffer_capacity_s)
        self.abr = abr

        self.process = self.manager.spawn_process(
            self.client.name, self.client.oom_adj, dirty_fraction=0.30
        )
        self.main_thread = self.manager.spawn_thread(
            self.process, f"{self.client.name}.main", SchedClass.FOREGROUND
        )
        self.decoder_thread = self.manager.spawn_thread(
            self.process, "MediaCodec", SchedClass.FOREGROUND
        )
        self.renderer_thread = self.manager.spawn_thread(
            self.process, "SurfaceFlinger", SchedClass.FOREGROUND
        )
        self.worker_threads = [
            self.manager.spawn_thread(
                self.process, f"{self.client.name}.worker{i}", SchedClass.FOREGROUND
            )
            for i in range(self.client.n_worker_threads)
        ]

        self.current_rep: Representation = self.manifest.representation(resolution, fps)
        self._reps: Dict[str, Representation] = {
            rep.id: rep for rep in self.manifest.representations
        }
        self.pipeline = RenderPipeline(
            self.sim,
            self.manager,
            self.process,
            self.decoder_thread,
            self.renderer_thread,
            self.client,
            asset.genre,
            device.profile.decode_cost_multiplier,
            next_segment=self._next_segment,
            on_finished=self._session_finished,
        )

        self.result = SessionResult(
            device_name=device.profile.name,
            client_name=self.client.name,
            resolution=resolution,
            fps=fps,
            genre=asset.genre.name,
            duration_s=asset.duration_s,
        )

        self._started = False
        self._done = False
        self._fetch_index = 0
        self._play_index = 0
        self._fetch_inflight = False
        self._playing_pages = 0
        self._codec_pages = 0
        self._texture_pages = 0
        self._churn_pages = 0
        self._churn_phase = False
        self._playback_started = False
        self._start_time: Time = 0
        #: (time_s, Mbps) measured per completed segment download.
        self.throughput_history: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the client: allocate its footprint, begin fetching."""
        if self._started:
            return
        self._started = True
        self._start_time = self.sim.now
        self.process.on_kill.append(self._on_kill)
        self.manager.monitor.subscribe(self._on_pressure_signal)
        base = self.client.base_pages
        file_pages = round(base * self.client.file_share)
        anon_pages = base - file_pages
        quarter = anon_pages // 4
        chunks = [("file", file_pages)] + [("anon", quarter)] * 3 + [
            ("anon", anon_pages - 3 * quarter)
        ]

        def allocate_chunks(remaining: List[tuple]) -> None:
            if not remaining or not self.process.alive:
                if self.process.alive:
                    self._allocate_codec_buffers(self._after_startup)
                return
            (kind, pages), *rest = remaining
            self.manager.request_pages(
                self.process,
                self.main_thread,
                pages,
                kind=kind,
                hot_fraction=0.5,
                on_granted=lambda: allocate_chunks(rest),
            )

        allocate_chunks(chunks)

    def _after_startup(self) -> None:
        if not self.process.alive:
            return
        self._pss_service = PeriodicService(
            self.sim, PSS_SAMPLE_PERIOD, self._sample_pss, label="pss"
        )
        self._pss_service.fire()
        self._churn_tick()
        self._start_duty_loops()
        self._fetch_next()

    def _start_duty_loops(self) -> None:
        """Sustain the auxiliary CPU load of a real client: IPC, demuxing,
        JS, layout — dozens of threads whose queueing delays are what
        §5 measures as Runnable time.

        One clock drives every thread's loop: they all share the period
        and start together, so each tick posts the main thread's burst
        and then each worker's, in the order the draws are made."""
        rng = self.sim.random.stream("client.duty")
        period = millis(20)
        # ``scale * draw`` is ``period * duty * draw`` evaluated left to
        # right, so precomputing each thread's scale changes no burst.
        loads = [(self.main_thread, period * self.client.main_thread_duty)]
        loads += [
            (thread, period * self.client.worker_duty)
            for thread in self.worker_threads
        ]

        def tick() -> None:
            if self._done or not self.process.alive:
                service.stop()
                return
            for thread, scale in loads:
                burst = scale * rng.lognormvariate(0.0, 0.25)
                if burst >= 1.0:
                    thread.post(burst, label="duty")

        service = PeriodicService(self.sim, period, tick, label="duty")
        service.fire()  # the first bursts land inline

    def _allocate_codec_buffers(self, then) -> None:
        """(Re)allocate the decoded-frame pool and textures for the
        current representation, releasing any previous allocation."""
        rep = self.current_rep
        new_codec = self.client.codec_buffer_pages(rep.resolution, rep.fps)
        new_texture = self.client.texture_pages(rep.resolution)
        release = self._codec_pages + self._texture_pages
        if release > 0:
            self.manager.release_pages(self.process, release, kind="anon")
        self._codec_pages = new_codec
        self._texture_pages = new_texture
        self.manager.request_pages(
            self.process,
            self.decoder_thread,
            new_codec + new_texture,
            kind="anon",
            hot_fraction=1.0,  # codec buffers are touched every frame
            on_granted=then,
        )

    # ------------------------------------------------------------------
    # Fetch loop
    # ------------------------------------------------------------------
    def _fetch_next(self) -> None:
        if self._done or not self.process.alive or self._fetch_inflight:
            return
        if self._fetch_index >= self.manifest.segment_count:
            return
        if not self.buffer.has_room:
            self.sim.schedule(millis(250), self._fetch_next, label="fetch:wait")
            return
        if self.abr is not None:
            choice = self.abr.choose_representation(self)
            if choice is not None and choice.id != self.current_rep.id:
                self.set_representation(choice.resolution, choice.fps)
        rep = self.current_rep
        index = self._fetch_index
        self._fetch_inflight = True
        started = self.sim.now
        self.server.request_segment(
            rep, index, lambda seg: self._on_segment(seg, rep, started)
        )

    def _on_segment(self, segment, rep: Representation, started: Time) -> None:
        self._fetch_inflight = False
        if self._done or not self.process.alive:
            return
        elapsed_s = max(1e-9, to_seconds(self.sim.now - started))
        self.throughput_history.append(
            (to_seconds(self.sim.now), segment.size_bytes * 8 / elapsed_s / 1e6)
        )
        pages = bytes_to_pages(segment.size_bytes)
        # Segments land in the browser's media source buffer, which is
        # file-backed (media cache): under pressure these pages are
        # written back and refault from disk through mmcqd.
        self.manager.request_pages(
            self.process,
            self.main_thread,
            pages,
            kind="file",
            hot_fraction=0.85,
            on_granted=lambda: self._segment_ready(segment, rep),
        )

    def _segment_ready(self, segment, rep: Representation) -> None:
        if self._done or not self.process.alive:
            return
        self.buffer.push(segment, rep.id)
        self._fetch_index += 1
        self.pipeline.feed()
        self._maybe_start_playback()
        self._fetch_next()

    def _maybe_start_playback(self) -> None:
        if self._playback_started:
            return
        enough = self.buffer.level_s >= min(START_BUFFER_S, self.asset.duration_s)
        all_fetched = self._fetch_index >= self.manifest.segment_count
        if enough or all_fetched:
            self._playback_started = True
            self.pipeline.start()

    # ------------------------------------------------------------------
    # Pipeline callbacks
    # ------------------------------------------------------------------
    def _next_segment(self):
        item = self.buffer.pop()
        if item is None:
            if self._fetch_index >= self.manifest.segment_count:
                self.sim.schedule(0, self.pipeline.finish, label="session:drain")
            return None
        # The previous segment has fully played: release its memory.
        if self._playing_pages > 0:
            self.manager.release_pages(self.process, self._playing_pages, "file")
        segment, rep_id = item
        rep = self._reps[rep_id]
        self._playing_pages = bytes_to_pages(segment.size_bytes)
        self._play_index += 1
        self.result.played_bitrates_kbps.append(rep.bitrate_kbps)
        return segment, rep.resolution, rep.fps

    def _session_finished(self) -> None:
        self._finalize()

    def _on_kill(self, reason: str) -> None:
        self.result.crashed = True
        self.result.crash_reason = reason
        self.result.crash_time_s = to_seconds(self.sim.now - self._start_time)
        self.pipeline.stop()
        self._finalize()

    def _finalize(self) -> None:
        if self._done:
            return
        self._done = True
        self.result.wall_span_s = to_seconds(self.sim.now - self._start_time)
        stats = self.pipeline.stats
        self.result.frames_processed = stats.frames_processed
        self.result.frames_rendered = stats.frames_rendered
        self.result.frames_dropped = stats.frames_dropped
        self.result.dropped_decode_late = stats.dropped_decode_late
        self.result.dropped_render_late = stats.dropped_render_late
        self.result.dropped_skipped = stats.dropped_skipped
        self.result.drop_rate = stats.drop_rate
        self.result.rebuffer_s = to_seconds(stats.rebuffer_ticks)
        self.result.fps_series = stats.rendered_fps_series(
            start_s=to_seconds(self._start_time)
        )
        self.result.lmkd_kills = self.manager.vmstat.lmkd_kills
        self.result.oom_kills = self.manager.vmstat.oom_kills
        if SESSION_END in self.sim.topics:
            self.sim.emit(SESSION_END, player=self)

    @property
    def finished(self) -> bool:
        return self._done

    @property
    def buffer_level_s(self) -> float:
        return self.buffer.level_s

    def estimated_throughput_mbps(self) -> float:
        """EWMA of recent segment download throughput (0 if no samples)."""
        if not self.throughput_history:
            return 0.0
        estimate = self.throughput_history[0][1]
        for _, mbps in self.throughput_history[1:]:
            estimate = 0.7 * estimate + 0.3 * mbps
        return estimate

    # ------------------------------------------------------------------
    # Adaptation API (§6)
    # ------------------------------------------------------------------
    def set_representation(
        self, resolution: str, fps: int, flush: bool = False
    ) -> None:
        """Switch future fetches to (resolution, fps); optionally flush
        the buffer so the switch takes effect at the playhead."""
        new_rep = self.manifest.representation(resolution, fps)
        if new_rep.id == self.current_rep.id:
            return
        self.current_rep = new_rep
        self.result.switch_log.append(
            (to_seconds(self.sim.now - self._start_time), resolution, fps)
        )
        if flush:
            released_bytes = self.buffer.flush()
            if released_bytes > 0:
                self.manager.release_pages(
                    self.process, bytes_to_pages(released_bytes), "file"
                )
            self._fetch_index = self._play_index
            self._fetch_next()
        if self.process.alive:
            self._allocate_codec_buffers(lambda: None)

    # ------------------------------------------------------------------
    # Background loops
    # ------------------------------------------------------------------
    def _on_pressure_signal(self, level: MemoryPressureLevel, time: Time) -> None:
        if self._done:
            return
        self.result.signals.append((to_seconds(time - self._start_time), level))
        if self.abr is not None:
            self.abr.on_pressure_signal(self, level)

    def _churn_tick(self) -> None:
        """Steady allocate/release churn from JS heap and codec recycling."""
        if self._done or not self.process.alive:
            return
        churn = bytes_to_pages(
            round(self.client.churn_mb_per_s * 1024 * 1024 / 2)
        )
        if self._churn_phase:
            released = min(self._churn_pages, churn)
            if released > 0:
                self.manager.release_pages(self.process, released, "anon")
                self._churn_pages -= released
            self._churn_phase = False
            # Not a fixed-period loop: the allocate phase below re-arms
            # only once its page request is granted, so churn slows down
            # under memory pressure.
            self.sim.schedule(  # repro: noqa[REP108]
                CHURN_PERIOD, self._churn_tick, label="churn"
            )
        else:
            def granted() -> None:
                self._churn_pages += churn
                self._churn_phase = True
                self.sim.schedule(CHURN_PERIOD, self._churn_tick, label="churn")

            self.manager.request_pages(
                self.process, self.main_thread, churn,
                kind="anon", hot_fraction=0.8, on_granted=granted,
            )

    def _sample_pss(self) -> None:
        if self._done or not self.process.alive:
            self._pss_service.stop()
            return
        self.result.pss_series.append(
            (to_seconds(self.sim.now - self._start_time), self.process.pss_mb)
        )
