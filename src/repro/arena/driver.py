"""The arena driver: fan every (policy × device × pressure × rep) cell
through the fault-tolerant experiment fabric.

One :class:`ArenaJob` is one streaming session under one registered
policy; its content address (:func:`arena_job_key`) covers everything
that determines the outcome — the arena schema version, the policy's
registry fingerprint, the cell coordinates, and the seed — so the
fabric's whole determinism story carries over unchanged: a job's
:class:`ArenaRecord` is the same bytes whether computed serially, on a
worker pool, replayed from the result cache, or resumed from a
checkpoint journal (``tests/arena/test_determinism.py`` pins all four).

Seeds follow the legacy ``memory_aware_comparison`` schedule
(``base_seed + rep * seed_stride`` with the same defaults), which is
what lets the differential oracle hold the ``pressure`` entrant
bit-for-bit equal to the §6 experiment it generalizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.session import DEVICE_FACTORIES, StreamingSession
from ..experiments.checkpoint import SweepJournal
from ..experiments.parallel import (
    FabricReport,
    ResultCache,
    RetryPolicy,
    default_cache_dir,
    run_jobs,
)
from ..faults import active_plan
from ..video.encoding import GENRES, VideoAsset
from .policies import build_policy, get_policy, policy_names
from .scoring import QoEScore, SessionMetrics, metrics_from, score_all
from .trace import ArenaTrace, TraceCollector

#: Bump when ArenaRecord, the scorers, or the session model changes in
#: a way that alters arena results: cached records and journals from
#: older schemas then stop matching.
ARENA_SCHEMA_VERSION = 1

#: Journal family tag for arena sweeps (a session-sweep journal must
#: never replay into an arena run, and vice versa).
ARENA_JOURNAL_MAGIC = "repro-arena"

#: §6 frame-rate ladder of the travel asset every arena cell streams.
ARENA_FRAME_RATES = (24, 48, 60)

#: The legacy memory_aware_comparison seed schedule, kept verbatim so
#: the arena's ``pressure`` entrant reproduces its numbers exactly.
DEFAULT_BASE_SEED = 31
DEFAULT_SEED_STRIDE = 101


def arena_asset(duration_s: float) -> VideoAsset:
    """The travel video re-encoded with the §6 frame-rate ladder (the
    same asset ``memory_aware_comparison`` streams)."""
    return VideoAsset(
        "Dubai Flow Motion in 4K",
        GENRES["travel"],
        duration_s,
        frame_rates=ARENA_FRAME_RATES,
    )


@dataclass(frozen=True)
class ArenaConfig:
    """One arena run, fully determined (the artifact embeds it)."""

    policies: Tuple[str, ...] = ()
    devices: Tuple[str, ...] = ("nokia1", "nexus5", "nexus6p")
    pressures: Tuple[str, ...] = ("normal", "moderate", "critical")
    reps: int = 3
    duration_s: float = 30.0
    resolution: str = "480p"
    fps: int = 60
    base_seed: int = DEFAULT_BASE_SEED
    seed_stride: int = DEFAULT_SEED_STRIDE

    def resolved_policies(self) -> Tuple[str, ...]:
        """The entrants: explicit names, or every registered policy."""
        names = self.policies or tuple(policy_names())
        for name in names:
            get_policy(name)  # raises with the options listed
        return tuple(names)

    def validate(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        for device in self.devices:
            if device not in DEVICE_FACTORIES:
                raise ValueError(
                    f"unknown device {device!r}; expected one of "
                    f"{sorted(DEVICE_FACTORIES)}"
                )
        self.resolved_policies()

    def as_dict(self) -> Dict[str, object]:
        """Canonical form for the leaderboard artifact."""
        return {
            "policies": list(self.resolved_policies()),
            "devices": list(self.devices),
            "pressures": list(self.pressures),
            "reps": self.reps,
            "duration_s": float(self.duration_s),
            "resolution": self.resolution,
            "fps": self.fps,
            "base_seed": self.base_seed,
            "seed_stride": self.seed_stride,
        }


@dataclass(frozen=True)
class ArenaJob:
    """One cell repetition: policy + coordinates + seed, nothing implicit.

    ``policy_fingerprint`` is captured at job-construction time so the
    content address is computable anywhere (workers, tests) without
    consulting the registry, and so bumping a policy's ``revision``
    invalidates exactly that policy's cached records.
    """

    policy: str
    policy_fingerprint: str
    device: str
    pressure: str
    resolution: str
    fps: int
    duration_s: float
    rep: int
    seed: int


def arena_job_key(job: ArenaJob) -> str:
    """Content address of a job: SHA-256 over its canonical JSON."""
    material = {
        "schema": ARENA_SCHEMA_VERSION,
        "policy": job.policy_fingerprint,
        "device": job.device,
        "pressure": job.pressure,
        "resolution": job.resolution,
        "fps": job.fps,
        "duration_s": repr(float(job.duration_s)),
        "rep": job.rep,
        "seed": job.seed,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def arena_jobs(config: ArenaConfig) -> List[ArenaJob]:
    """The run's job list in canonical enumeration order
    (policy → device → pressure → rep); record and artifact ordering
    derive from this, never from completion order."""
    config.validate()
    jobs: List[ArenaJob] = []
    for policy in config.resolved_policies():
        fingerprint = get_policy(policy).fingerprint
        for device in config.devices:
            for pressure in config.pressures:
                for rep in range(config.reps):
                    jobs.append(ArenaJob(
                        policy=policy,
                        policy_fingerprint=fingerprint,
                        device=device,
                        pressure=pressure,
                        resolution=config.resolution,
                        fps=config.fps,
                        duration_s=config.duration_s,
                        rep=rep,
                        seed=config.base_seed + rep * config.seed_stride,
                    ))
    return jobs


@dataclass(frozen=True)
class ArenaRecord:
    """What one job produced: headline session stats, the scorer-facing
    metrics projection, and every objective's verdict."""

    policy: str
    device: str
    pressure: str
    rep: int
    seed: int
    key: str
    #: Pipeline drop rate over processed frames (the legacy §6 number).
    drop_rate: float
    mean_rendered_fps: float
    crashed: bool
    metrics: SessionMetrics
    trace: ArenaTrace
    #: One verdict per objective, in OBJECTIVES order.
    scores: Tuple[QoEScore, ...]

    def score(self, objective: str) -> float:
        for verdict in self.scores:
            if verdict.objective == objective:
                return verdict.value
        raise KeyError(objective)


def run_arena_job(job: ArenaJob) -> ArenaRecord:
    """Execute one arena cell repetition (worker entry point).

    Mirrors the legacy experiment's session construction exactly —
    device factory seeded with the job seed, the travel asset, no
    client override, no organic apps — and attaches the trace collector
    before the session runs (subscription is behavior-neutral, so the
    measured :class:`SessionResult` is unchanged by the instrumentation).
    """
    plan = active_plan()
    if plan is not None:
        plan.fire(f"job:{arena_job_key(job)}")
    device = DEVICE_FACTORIES[job.device](seed=job.seed)
    collector = TraceCollector(device.sim, job.fps)
    session = StreamingSession(
        device=device,
        asset=arena_asset(job.duration_s),
        resolution=job.resolution,
        frame_rate=job.fps,
        pressure=job.pressure,
        duration_s=job.duration_s,
        seed=job.seed,
        abr=build_policy(job.policy),
    )
    result = session.run()
    trace = collector.finalize()
    metrics = metrics_from(result, trace)
    scores = tuple(score_all(metrics).values())
    return ArenaRecord(
        policy=job.policy,
        device=job.device,
        pressure=job.pressure,
        rep=job.rep,
        seed=job.seed,
        key=arena_job_key(job),
        drop_rate=result.drop_rate,
        mean_rendered_fps=result.mean_rendered_fps,
        crashed=result.crashed,
        metrics=metrics,
        trace=trace,
        scores=scores,
    )


@dataclass
class ArenaResult:
    """Everything one :func:`run_arena` call produced."""

    config: ArenaConfig
    records: List[ArenaRecord]
    leaderboard: Dict[str, object]
    report: FabricReport = field(default_factory=FabricReport)


def arena_digest(jobs: Sequence[ArenaJob]) -> str:
    """Stable identity of an arena run: hash of its sorted job keys."""
    keys = sorted(arena_job_key(job) for job in jobs)
    blob = "\n".join([str(len(keys)), *keys])
    return hashlib.sha256(blob.encode()).hexdigest()


def default_arena_journal_path(
    jobs: Sequence[ArenaJob], root: Optional[Path] = None
) -> Path:
    """``<cache root>/journals/arena-<run digest>.journal``."""
    base = root if root is not None else default_cache_dir()
    return base / "journals" / f"arena-{arena_digest(jobs)[:16]}.journal"


def default_arena_cache_dir() -> Path:
    """Arena records live beside (not among) the session cache entries."""
    return default_cache_dir() / "arena"


def make_arena_journal(
    jobs: Sequence[ArenaJob],
    path: Optional[Path] = None,
    resume: bool = True,
) -> SweepJournal:
    """An arena-tagged checkpoint journal (foreign journals are
    rejected wholesale by the magic/schema/record-type triple)."""
    return SweepJournal(
        path if path is not None else default_arena_journal_path(jobs),
        resume=resume,
        magic=ARENA_JOURNAL_MAGIC,
        schema=ARENA_SCHEMA_VERSION,
        result_type=ArenaRecord,
    )


def run_arena(
    config: ArenaConfig,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    journal: Optional[SweepJournal] = None,
    policy: Optional[RetryPolicy] = None,
    report: Optional[FabricReport] = None,
) -> ArenaResult:
    """Run the full arena grid and build the leaderboard.

    Every cell resolves through :func:`run_jobs`: cache hit, then
    journal hit, then computation (fanned out across ``jobs`` workers).
    On Ctrl-C the fabric drains, checkpoints, and raises
    :class:`~repro.experiments.parallel.SweepInterrupted`; resuming
    with the same config and journal replays completed cells and
    produces a byte-identical artifact.
    """
    from .leaderboard import build_leaderboard  # import cycle guard

    stats = report if report is not None else FabricReport()
    grid = arena_jobs(config)
    records = run_jobs(
        grid,
        run_arena_job,
        keys=[arena_job_key(job) for job in grid],
        seeds=[job.seed for job in grid],
        jobs=jobs,
        cache=cache,
        journal=journal,
        policy=policy,
        report=stats,
    )
    leaderboard = build_leaderboard(config, records)
    return ArenaResult(
        config=config,
        records=records,
        leaderboard=leaderboard,
        report=stats,
    )
