"""DASH manifest and segment model.

Videos are divided into ~4-second chunks (§4.1, following Pensieve and
Oboe).  A :class:`Manifest` is the MPD analog: one :class:`Representation`
per (resolution, frame rate) rung with per-segment byte sizes that vary
around the ladder bitrate with the genre's complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.rng import RandomStreams
from .encoding import VideoAsset

#: Chunk length used throughout the paper's experiments.
SEGMENT_DURATION_S = 4.0


@dataclass(frozen=True)
class Segment:
    """One media chunk of one representation."""

    index: int
    duration_s: float
    size_bytes: int


@dataclass(frozen=True)
class Representation:
    """One (resolution, fps) encoding of the asset."""

    resolution: str
    fps: int
    bitrate_kbps: int
    segments: tuple

    @property
    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self.segments)

    @property
    def id(self) -> str:
        return f"{self.resolution}@{self.fps}"


class Manifest:
    """MPD analog: all representations of one video asset."""

    def __init__(self, asset: VideoAsset, randoms: RandomStreams) -> None:
        self.asset = asset
        self.duration_s = asset.duration_s
        rng = randoms.stream(f"dash:{asset.title}")
        self._representations = {}
        for resolution, fps, kbps in asset.encodings():
            segments = self._build_segments(kbps, asset, rng)
            rep = Representation(resolution, fps, kbps, tuple(segments))
            self._representations[(resolution, fps)] = rep

    def _build_segments(self, kbps, asset, rng) -> List[Segment]:
        segments = []
        remaining = self.duration_s
        index = 0
        while remaining > 1e-9:
            duration = min(SEGMENT_DURATION_S, remaining)
            nominal = kbps * 1000 / 8 * duration * asset.genre.complexity
            size = max(1, round(nominal * rng.lognormvariate(0.0, 0.12)))
            segments.append(Segment(index, duration, size))
            remaining -= duration
            index += 1
        return segments

    # ------------------------------------------------------------------
    def representation(self, resolution: str, fps: int) -> Representation:
        key = (resolution, fps)
        if key not in self._representations:
            raise KeyError(f"no representation {resolution}@{fps}")
        return self._representations[key]

    @property
    def representations(self) -> List[Representation]:
        return sorted(
            self._representations.values(),
            key=lambda rep: (rep.bitrate_kbps, rep.fps),
        )

    @property
    def segment_count(self) -> int:
        return len(next(iter(self._representations.values())).segments)

    def ladder(self) -> List[str]:
        """Human-readable rung list, lowest bitrate first."""
        return [
            f"{rep.id} {rep.bitrate_kbps} kbps"
            for rep in self.representations
        ]
