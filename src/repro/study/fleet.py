"""Fleet orchestration: cohort shards on the parallel fabric.

Ties the cohort kernel (:mod:`repro.study.cohort`) to the experiment
fabric (:mod:`repro.experiments.parallel`): each cohort is one job with
a content-addressed key, fanned out via :func:`run_jobs` — which brings
chunked dispatch, supervision (retries, hang detection, pool restart,
serial degradation), and the checkpoint journal to million-device
population runs.  An interrupted run (Ctrl-C → exit 130) resumes from
its journal with ``--resume``, exactly like sweeps.

Determinism: a cohort's randomness comes only from its named streams
(derived from the master seed and the cohort index), and summary
merging is associative — so any ``--jobs`` value, any shard→process
placement, and any resume/retry history produce a bit-identical merged
:class:`~repro.study.cohort.FleetSummary`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..experiments.checkpoint import SweepJournal
from ..experiments.parallel import (
    FabricReport,
    RetryPolicy,
    default_cache_dir,
    run_jobs,
)
from ..faults import active_plan
from ..sim.rng import derive_seed
from .cohort import (
    CohortResult,
    FleetConfig,
    FleetSummary,
    columns_to_logs,
    n_cohorts,
    simulate_cohort,
)
from .signalcapturer import DeviceLog

#: Bump when the fleet model or FleetSummary layout changes in a way
#: that alters results: old journals and export files then stop
#: matching.
POP_SCHEMA_VERSION = 1

FLEET_JOURNAL_MAGIC = "repro-fleet"


@dataclass(frozen=True)
class CohortJob:
    """One cohort shard: fully determined by (config, cohort index).

    ``export_dir`` (when set) makes the worker write the cohort's
    columnar logs as ``cohort-<index>.npz`` before returning;
    ``keep_columns`` ships the columns back in the result (small
    populations only — it defeats the O(cohorts) memory bound).
    """

    cohort_index: int
    config: FleetConfig
    export_dir: Optional[str] = None
    keep_columns: bool = False


def cohort_job_key(job: CohortJob) -> str:
    """Content address of a cohort job (journal key, fault point)."""
    config = job.config
    material: Dict[str, Any] = {
        "schema": POP_SCHEMA_VERSION,
        "cohort": job.cohort_index,
        "n_devices": config.n_devices,
        "mean_hours": repr(float(config.mean_hours)),
        "min_hours": repr(float(config.min_hours)),
        "max_hours": repr(float(config.max_hours)),
        "hours_scale": repr(float(config.hours_scale)),
        "seed": config.seed,
        "cohort_size": config.cohort_size,
        "min_interactive_hours": (
            None if config.min_interactive_hours is None
            else repr(float(config.min_interactive_hours))
        ),
        "compression": config.compression,
        "export": job.export_dir or "",
        "keep": job.keep_columns,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _export_path(export_dir: Path | str, cohort_index: int) -> Path:
    return Path(export_dir) / f"cohort-{cohort_index:05d}.npz"


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Any]:
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


#: glibc ``mallopt`` parameter: the size from which ``malloc`` gives a
#: buffer its own mapping, unmapped again when the buffer is freed.
_M_MMAP_THRESHOLD = -3

#: The fixed mmap threshold for cohort work.  Each mapped buffer is
#: faulted in afresh, so a lower threshold costs time: on the benchmark
#: fleet 4 MB made the cold phase ~20 % slower, 8 MB about 10 %.
_MMAP_THRESHOLD_BYTES = 8 << 20


@functools.lru_cache(maxsize=None)
def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at :data:`_MMAP_THRESHOLD_BYTES`.

    Left alone, glibc raises the threshold to the largest mapping freed
    so far (up to 32 MB), so after the first cohort its large numpy
    temporaries come from the heap, and a cohort's peak then depends on
    how the heap was laid out before it: the same 4,096-device
    benchmark fleet peaked at 126 MB, or at 144-148 MB after a change
    to modules the fleet never calls.  Setting the threshold once also
    switches the raising off, for the whole process, like the trim.  A
    no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _release_freed_memory() -> None:
    """Hand the heap pages that freed buffers leave behind back to the OS.

    A cohort allocates and frees tens of MB of numpy buffers.  glibc
    serves buffers below its (self-raising, up to 32 MB) mmap threshold
    from the heap and keeps their pages resident once freed, so without
    a trim the next cohort's footprint depends on how earlier work left
    the heap: on a 2-core x86-64 host, repeated benchmark runs of a
    4,096-device fleet peaked anywhere in 126-146 MB, and in 127-131 MB
    with one trim per cohort.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def run_cohort_job(job: CohortJob) -> CohortResult:
    """Worker entry point: simulate one cohort shard.

    Fires the job's fault point first (chaos harness, supervision
    tests), mirroring ``run_spec``.
    """
    _pin_mmap_threshold()
    plan = active_plan()
    if plan is not None:
        plan.fire(f"job:{cohort_job_key(job)}")
    collect = job.export_dir is not None or job.keep_columns
    result = simulate_cohort(
        job.cohort_index, job.config, collect_columns=collect
    )
    if job.export_dir is not None and result.columns is not None:
        from .export import save_cohort_columns

        save_cohort_columns(
            result.columns, _export_path(job.export_dir, job.cohort_index)
        )
    if not job.keep_columns:
        result = CohortResult(job.cohort_index, result.summary, None)
    _release_freed_memory()
    return result


def fleet_digest(config: FleetConfig) -> str:
    """Stable identity of a fleet run (for the default journal path)."""
    probe = CohortJob(cohort_index=-1, config=config)
    return cohort_job_key(probe)


def default_fleet_journal_path(
    config: FleetConfig, root: Optional[Path] = None
) -> Path:
    """``<cache root>/journals/fleet-<digest>.journal``."""
    base = root if root is not None else default_cache_dir()
    return base / "journals" / f"fleet-{fleet_digest(config)[:16]}.journal"


def fleet_journal(
    path: Path | str, resume: bool = True
) -> SweepJournal:
    """A checkpoint journal for cohort-shard jobs (same file format as
    sweep journals, with the fleet magic/schema/payload type)."""
    return SweepJournal(
        path,
        resume=resume,
        magic=FLEET_JOURNAL_MAGIC,
        schema=POP_SCHEMA_VERSION,
        result_type=CohortResult,
    )


@dataclass
class FleetResult:
    """Outcome of one :func:`run_fleet` call."""

    config: FleetConfig
    summary: FleetSummary
    report: FabricReport
    #: npz files written by the cohort workers (export mode).
    export_paths: List[Path] = field(default_factory=list)
    #: Materialized per-device logs (``keep_logs`` mode only).
    logs: Optional[List[DeviceLog]] = None


def run_fleet(
    config: FleetConfig,
    jobs: Optional[int] = None,
    journal: Optional[SweepJournal] = None,
    export_dir: Optional[Path] = None,
    keep_logs: bool = False,
    policy: Optional[RetryPolicy] = None,
    report: Optional[FabricReport] = None,
) -> FleetResult:
    """Simulate the whole fleet and merge the cohort summaries.

    ``jobs`` fans cohorts out over worker processes (None/1 = serial);
    ``journal`` checkpoints each finished cohort for ``--resume``;
    ``export_dir`` streams per-cohort columnar logs to disk as shards
    complete (memory stays O(cohorts)); ``keep_logs`` instead carries
    the logs home in RAM — the escape hatch for small populations.
    """
    total = n_cohorts(config)
    export_paths: List[Path] = []
    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
        export_paths = [_export_path(export_dir, c) for c in range(total)]
    payloads = [
        CohortJob(
            cohort_index=c,
            config=config,
            export_dir=None if export_dir is None else str(export_dir),
            keep_columns=keep_logs,
        )
        for c in range(total)
    ]
    keys = [cohort_job_key(job) for job in payloads]
    seeds = [
        derive_seed(config.seed, f"study.fleet{c}") for c in range(total)
    ]
    stats = report if report is not None else FabricReport()
    results: List[Optional[CohortResult]] = run_jobs(
        payloads,
        run_cohort_job,
        keys=keys,
        seeds=seeds,
        jobs=jobs,
        journal=journal,
        policy=policy,
        report=stats,
    )
    # The journal vouches for a cohort's summary, not for its export
    # file: re-export any resumed cohort whose file has gone (one stat
    # each; the rewrite is byte-identical).
    for index, path in enumerate(export_paths):
        if not path.exists():
            results[index] = run_cohort_job(payloads[index])
            stats.resumed -= 1
            stats.computed += 1

    summary = FleetSummary()
    logs: Optional[List[DeviceLog]] = [] if keep_logs else None
    for result in results:
        assert result is not None  # run_jobs raises rather than drops
        summary = summary.merge(result.summary)
        if logs is not None and result.columns is not None:
            logs.extend(columns_to_logs(result.columns))
    return FleetResult(
        config=config,
        summary=summary,
        report=stats,
        export_paths=export_paths,
        logs=logs,
    )
