"""Parallel experiment fabric: supervision, retries, and the result cache.

Every §4/§6 artefact decomposes into independent *session jobs* — one
:class:`~repro.core.session.StreamingSession` per (cell, repetition)
pair, each with its own deterministic seed.  This module fans those
jobs out over a :class:`~concurrent.futures.ProcessPoolExecutor` and
reassembles results **by submission index**, so aggregation is
completely order-independent: a parallel run is bit-identical to a
serial run of the same specs.

Two properties make that guarantee cheap to keep:

* a session's entire randomness derives from its
  :class:`~repro.sim.rng.RandomStreams` master seed via named streams,
  so a repetition's result depends only on its :class:`SessionSpec`,
  never on which worker ran it or what ran before it;
* results are plain dataclasses, so shipping them across process
  boundaries (or a cache file) loses nothing.

The same spec-determines-result property powers the on-disk cache
(a spec's canonical JSON plus :data:`SCHEMA_VERSION` is hashed into a
content address) **and** the fabric's fault tolerance: because any job
can be re-executed anywhere and produce the same bytes, the supervisor
is free to retry, relocate, or serialize work when things go wrong.
Concretely (see ``docs/robustness.md`` for the failure model):

* a job that raises is retried with exponential backoff whose jitter
  derives from the job's seed (deterministic, never wall clock), and
  re-runs **serially in-process** so a poisoned pool cannot eat it;
* a killed worker (``BrokenProcessPool``) costs one pool restart; a
  second loss degrades the rest of the sweep to in-process serial
  execution with a warning — never a crash;
* heartbeat files written by workers at job boundaries let the
  supervisor detect a stalled job and abandon the pool instead of
  waiting forever;
* corrupt cache entries are quarantined (not deleted) and recomputed;
* with a :class:`~repro.experiments.checkpoint.SweepJournal` attached,
  every computed job is checkpointed incrementally and a
  ``KeyboardInterrupt`` drains in-flight work before raising
  :class:`SweepInterrupted`, so an interrupted sweep resumes from the
  journal bit-identically instead of restarting.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.session import StreamingSession
from ..faults import active_plan
from ..storage import (
    Quarantine,
    StorageReport,
    is_readonly_error,
    publish_bytes,
    verified_read,
    write_sidecar,
)
from ..video.encoding import VideoAsset
from ..video.player import SessionResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .checkpoint import SweepJournal

#: Bump when SessionResult, the simulator, or any model changes in a
#: way that alters results: old cache entries then stop matching.
#: 2: SessionResult gained lmkd_kills/oom_kills (validation subsystem).
SCHEMA_VERSION = 2

#: Fingerprint of SessionResult's field list (name + annotation), kept
#: in lockstep with SCHEMA_VERSION: `repro lint` (REP204) recomputes it
#: from the dataclass and fails if the fields changed without a
#: SCHEMA_VERSION bump alongside an updated fingerprint here.
SCHEMA_FINGERPRINT = "972341064bfabe6a"

#: Seed stride between repetitions of a cell (a prime, so overlapping
#: sweeps with different base seeds rarely collide).
SEED_STRIDE = 7919

#: Environment overrides: cache directory, and a global kill switch.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"

#: Subdirectory of the cache root where corrupt entries are moved for
#: post-mortem inspection instead of being deleted.
QUARANTINE_DIR = "quarantine"


class JobFailedError(RuntimeError):
    """A session job kept failing after every retry attempt."""


class SweepInterrupted(KeyboardInterrupt):
    """A sweep stopped on Ctrl-C after draining and checkpointing.

    Subclasses :class:`KeyboardInterrupt` so callers that do not know
    about checkpointing keep their existing interrupt behaviour, while
    the CLIs catch this to print a resume hint and exit with 130.
    """

    def __init__(
        self,
        completed: int,
        total: int,
        journal_path: Optional[Path] = None,
    ) -> None:
        super().__init__(
            f"sweep interrupted with {completed}/{total} jobs completed"
        )
        self.completed = completed
        self.total = total
        self.journal_path = journal_path


@dataclass(frozen=True)
class RetryPolicy:
    """How the fabric supervises jobs (see ``docs/robustness.md``).

    Backoff before attempt *n*'s retry is
    ``min(backoff_max_s, backoff_base_s * backoff_factor**n)`` scaled
    by a jitter factor in ``[1, 1 + jitter_frac]`` derived from the
    job's seed and the attempt number — deterministic across runs and
    hosts, unlike wall-clock or pid-seeded jitter.

    ``hang_timeout_s`` bounds how long a single job may run without its
    worker's heartbeat advancing before the pool is declared hung; it
    must exceed the longest legitimate job.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter_frac: float = 0.5
    hang_timeout_s: float = 300.0
    heartbeat_poll_s: float = 0.25
    pool_restarts: int = 1

    def backoff_s(self, seed: int, attempt: int) -> float:
        """Deterministic backoff delay before retry ``attempt``."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** attempt,
        )
        digest = hashlib.sha256(f"retry:{seed}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64
        return base * (1.0 + self.jitter_frac * unit)


@dataclass
class FabricReport:
    """What the fabric did on one :func:`run_jobs` call.

    Callers pass an instance in to collect the sweep summary the CLIs
    print (cache hits, resumed jobs, retries, quarantined entries, …).
    """

    computed: int = 0
    cache_hits: int = 0
    #: Results served from the checkpoint journal instead of re-running.
    resumed: int = 0
    #: Job attempts that raised (each may be retried).
    failures: int = 0
    #: Extra executions performed because an earlier attempt failed.
    retries: int = 0
    #: Times the heartbeat monitor declared the pool hung.
    hangs: int = 0
    #: Times a lost pool was rebuilt.
    pool_restarts: int = 0
    #: Jobs recovered by in-process serial execution after pool trouble.
    serial_fallback: int = 0
    #: Corrupt cache entries moved to quarantine during this run.
    quarantined: int = 0
    interrupted: bool = False

    def summary(self) -> str:
        """One line for the sweep summary, e.g. printed by ``repro sweep``."""
        parts = [f"computed {self.computed}"]
        if self.cache_hits:
            parts.append(f"cache hits {self.cache_hits}")
        if self.resumed:
            parts.append(f"resumed {self.resumed}")
        if self.retries or self.failures:
            parts.append(f"retries {self.retries} (failures {self.failures})")
        if self.hangs:
            parts.append(f"hangs {self.hangs}")
        if self.pool_restarts:
            parts.append(f"pool restarts {self.pool_restarts}")
        if self.serial_fallback:
            parts.append(f"serial fallback {self.serial_fallback}")
        if self.quarantined:
            parts.append(f"quarantined cache entries {self.quarantined}")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)


@dataclass(frozen=True)
class SessionSpec:
    """A fully-determined session job: config + seed, nothing implicit.

    ``abr`` may be a controller *factory* (class or zero-arg callable,
    instantiated fresh in whichever process runs the job) or a shared
    instance.  Shared instances carry mutable state across repetitions,
    so such specs run serially in-process and are never cached.
    """

    device: str
    resolution: str
    fps: int
    pressure: str
    client: Optional[str]
    duration_s: float
    seed: int
    organic_apps: int = 0
    asset: Optional[VideoAsset] = None
    abr: Any = None

    @property
    def cacheable(self) -> bool:
        """Only ABR-free specs are cached: a controller's identity and
        configuration are not part of the content address."""
        return self.abr is None

    @property
    def parallel_safe(self) -> bool:
        """False when ``abr`` is a shared instance (mutable cross-rep
        state that a worker-process copy would silently fork)."""
        return self.abr is None or callable(self.abr)


def cache_key(spec: SessionSpec) -> str:
    """Content address of a spec: SHA-256 over its canonical JSON."""
    asset = spec.asset
    material = {
        "schema": SCHEMA_VERSION,
        "device": spec.device,
        "resolution": spec.resolution,
        "fps": spec.fps,
        "pressure": spec.pressure,
        "client": spec.client or "",
        "duration_s": repr(float(spec.duration_s)),
        "seed": spec.seed,
        "organic_apps": spec.organic_apps,
        "asset": None if asset is None else {
            "title": asset.title,
            "genre": asset.genre.name,
            "complexity": repr(asset.genre.complexity),
            "duration_s": repr(float(asset.duration_s)),
            "resolutions": list(asset.resolutions),
            "frame_rates": list(asset.frame_rates),
        },
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed pickle store for :class:`SessionResult`.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` (two-level fan-out keeps
    directory listings sane at millions of entries).  Writes are atomic
    (temp file + rename), so concurrent runs sharing a cache directory
    can only ever observe complete entries.  Unreadable or wrong-typed
    entries are treated as misses and **quarantined** to
    ``<root>/quarantine/`` — moved, not deleted, so a corruption bug
    stays inspectable — with a single warning per cache instance; the
    affected job simply re-runs.
    """

    def __init__(
        self,
        root: Path | str,
        result_type: type = SessionResult,
        *,
        surface: str = "result-cache",
    ) -> None:
        self.root = Path(root)
        #: Entry payload type accepted on read.  Session sweeps use the
        #: default; other job families (e.g. arena records) pass their
        #: own so a foreign or stale entry is quarantined, not replayed.
        self.result_type = result_type
        #: Storage fault point (``storage:<surface>``) and envelope kind.
        self.surface = surface
        #: Envelope schema tag: entries written under a different result
        #: schema or payload type are quarantined on read, not replayed.
        self.schema = f"v{SCHEMA_VERSION}/{result_type.__name__}"
        self.hits = 0
        self.misses = 0
        self.report = StorageReport()
        self._q = Quarantine(
            self.root, label=f"{surface} at {self.root}", report=self.report
        )
        self._disabled = False

    @property
    def quarantined(self) -> int:
        """Corrupt entries moved to quarantine by this cache instance."""
        return self.report.quarantined

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        path = self.path_for(key)
        data = verified_read(
            path, quarantine=self._q, expected_schema=self.schema
        )
        if data is None:
            self.misses += 1
            return None
        try:
            result = pickle.loads(data)
        except Exception as exc:
            # Checksum-clean (or legacy, unverifiable) bytes that still
            # fail to unpickle were written by an incompatible version:
            # quarantine the entry and recompute.
            self._q.take(path, repr(exc))
            self.misses += 1
            return None
        if not isinstance(result, self.result_type):
            self._q.take(
                path,
                f"not a {self.result_type.__name__}: {type(result).__name__}",
            )
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        if self._disabled:
            return
        path = self.path_for(key)
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            digest = publish_bytes(
                path, data, surface=self.surface, report=self.report
            )
            write_sidecar(
                path,
                kind=self.surface,
                schema=self.schema,
                digest=digest,
                size=len(data),
            )
        except OSError as exc:
            # Caching is an optimization; never fail the experiment
            # over a full disk or read-only cache directory.  The
            # atomic writer guarantees the failed publish left nothing
            # behind, so there is no partial artifact to clean up.
            self.report.publish_errors += 1
            if is_readonly_error(exc):
                self._disabled = True
                self.report.readonly_fallbacks += 1
                warnings.warn(
                    f"cache directory {self.root} is not writable "
                    f"({exc}); falling back to uncached operation "
                    "(warned once per cache)",
                    RuntimeWarning,
                    stacklevel=3,
                )


def default_cache_dir() -> Path:
    """`$REPRO_CACHE_DIR`, else ``~/.cache/repro/sessions``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sessions"


def resolve_cache(cache: Any = None) -> Optional[ResultCache]:
    """Normalize a ``cache=`` argument.

    ``None`` selects the default on-disk cache (unless ``REPRO_NO_CACHE``
    is set), ``False`` disables caching, and a :class:`ResultCache`
    passes through.
    """
    if cache is False:
        return None
    if cache is None:
        if os.environ.get(CACHE_DISABLE_ENV):
            return None
        return ResultCache(default_cache_dir())
    assert isinstance(cache, ResultCache)
    return cache


def repetition_seeds(base_seed: int, repetitions: int) -> List[int]:
    """The per-repetition seed schedule shared by every runner path."""
    return [base_seed + rep * SEED_STRIDE for rep in range(repetitions)]


def run_spec(spec: SessionSpec) -> SessionResult:
    """Execute one session job to completion (worker entry point).

    When a fault plan is installed (chaos harness, tests) the job's
    fault point fires first, so injected kills/stalls/raises land
    exactly where a real fault would: mid-job, inside the worker.
    """
    plan = active_plan()
    if plan is not None and spec.cacheable:
        plan.fire(f"job:{cache_key(spec)}")
    session = StreamingSession(
        device=spec.device,
        asset=spec.asset,
        resolution=spec.resolution,
        frame_rate=spec.fps,
        pressure=spec.pressure,
        client=spec.client,
        duration_s=spec.duration_s,
        seed=spec.seed,
        organic_apps=spec.organic_apps,
        abr=spec.abr() if callable(spec.abr) else spec.abr,
    )
    return session.run()


def _available_cores() -> int:
    """Cores this process may actually use, never less than one.

    ``os.cpu_count`` reports the host's cores even inside a container
    or cpuset that restricts us to fewer, so prefer the scheduling
    affinity mask where the platform has one.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def effective_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Worker count: None/1 = serial, 0 or negative = all usable cores,
    always clamped to at least one worker."""
    if jobs is None:
        return 1
    if jobs <= 0:
        jobs = _available_cores()
    return max(1, min(jobs, n_tasks))


class _Heartbeat:
    """Worker-side progress beacon.

    Before each job the worker rewrites its per-pid file with an
    incrementing sequence and state ``run``; after finishing a chunk it
    writes state ``idle``.  The supervisor reads mtimes: a worker whose
    file says ``run`` but has not moved for ``hang_timeout_s`` is stuck
    inside a single job.  Idle workers are exempt (between chunks their
    file legitimately goes stale).
    """

    def __init__(self, hb_dir: Optional[str]) -> None:
        self.path = None if hb_dir is None else Path(hb_dir) / str(os.getpid())
        self.seq = 0

    def working(self) -> None:
        self._write("run")

    def idle(self) -> None:
        self._write("idle")

    def _write(self, state: str) -> None:
        if self.path is None:
            return
        self.seq += 1
        # Heartbeats are advisory and ephemeral: losing (or tearing) one
        # must never fail a job — the supervisor falls back to global-
        # progress staleness — so they are exempt from the durable
        # publish discipline.
        with suppress(OSError):
            self.path.write_text(f"{self.seq}:{state}")  # repro: noqa[REP111]


#: A job runner: any picklable module-level callable taking one payload.
JobRunner = Callable[[Any], Any]


def _run_chunk(
    payloads: Sequence[Any],
    runner: JobRunner,
    hb_dir: Optional[str] = None,
) -> List[Any]:
    """Execute a chunk of jobs in order (worker entry point).

    Chunking amortizes process-pool overhead: one pickle round-trip
    (task submit + result return) covers ``len(payloads)`` jobs instead
    of one.  Each job is fully determined by its payload, so the
    chunk's results are the concatenation of what ``runner`` would
    return job by job.  ``hb_dir`` names the heartbeat directory the
    supervisor watches for hang detection.
    """
    beat = _Heartbeat(hb_dir)
    results: List[Any] = []
    for payload in payloads:
        beat.working()
        results.append(runner(payload))
    beat.idle()
    return results


def _job_name(key: Optional[str], index: int) -> str:
    """How a failure message names a job: its key, else its index."""
    return f"job {key}" if key is not None else f"job #{index}"


def _run_with_retries(
    payload: Any,
    runner: JobRunner,
    seed: int,
    policy: RetryPolicy,
    report: FabricReport,
    name: str,
) -> Any:
    """Run one job in-process with bounded, deterministic-jitter retries."""
    attempts = max(1, policy.max_attempts)
    for attempt in range(attempts):
        try:
            return runner(payload)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            report.failures += 1
            if attempt + 1 >= attempts:
                raise JobFailedError(
                    f"{name} (seed {seed}) still failing after "
                    f"{attempts} attempts: {exc!r}"
                ) from exc
            report.retries += 1
            time.sleep(policy.backoff_s(seed, attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _pool_hung(
    hb_dir: Path, last_progress: float, timeout_s: float
) -> bool:
    """Heartbeat-based hang detection.

    Hung when (a) some worker has sat inside one job (state ``run``)
    beyond the timeout, or (b) nothing at all — no completion, no
    heartbeat — has moved beyond the timeout (covers workers that died
    before their first beat without breaking the pool).
    """
    # Heartbeat mtimes are wall clock, so staleness must be too; the
    # verdict only decides when to give up on a pool, never a result.
    now = time.time()  # repro: noqa[REP101]
    newest = last_progress
    try:
        entries = list(hb_dir.iterdir())
    except OSError:
        entries = []
    for entry in entries:
        beat = _read_heartbeat(entry)
        if beat is None:
            continue
        mtime, state = beat
        if state.endswith(":run") and now - mtime > timeout_s:
            return True
        newest = max(newest, mtime)
    return now - newest > timeout_s


def _read_heartbeat(entry: Path) -> Optional[Tuple[float, str]]:
    """One worker's (mtime, state), or None mid-rewrite/already-gone."""
    try:
        return entry.stat().st_mtime, entry.read_text()
    except OSError:
        return None


def _one_pool_pass(
    payloads: Sequence[Any],
    runner: JobRunner,
    queue: Sequence[int],
    n_workers: int,
    policy: RetryPolicy,
    report: FabricReport,
    complete: Callable[[int, Any], None],
) -> Tuple[List[int], List[int]]:
    """Run ``queue`` (payload indices) on one process pool.

    Returns ``(failed, lost)``: indices whose chunk raised an ordinary
    exception (poisoned jobs — re-run them serially), and indices lost
    to a broken or hung pool (candidates for a pool restart).  On
    Ctrl-C, drains in-flight chunks (keeping their results) and
    re-raises.
    """
    hb_dir = Path(tempfile.mkdtemp(prefix="repro-hb-"))
    # Batched dispatch: K consecutive jobs per pool task, so a sweep
    # pays one pickle round-trip per chunk rather than per session.
    # Four chunks per worker keeps the tail balanced while still
    # amortizing the per-task cost.  Placement stays by submission
    # index: each chunk carries its indices, and results land in the
    # slots those indices name, so completion order is irrelevant.
    chunk_size = max(1, -(-len(queue) // (n_workers * 4)))
    chunks = [
        list(queue[start:start + chunk_size])
        for start in range(0, len(queue), chunk_size)
    ]
    failed: List[int] = []
    lost: List[int] = []
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=n_workers)
    pending: Dict[Future[List[Any]], List[int]] = {}
    try:
        for chunk in chunks:
            pending[pool.submit(
                _run_chunk, [payloads[i] for i in chunk], runner, str(hb_dir)
            )] = chunk
        # Progress stamps are compared with heartbeat mtimes (wall
        # clock) by _pool_hung; they steer hang detection only.
        last_progress = time.time()  # repro: noqa[REP101]
        while pending:
            done, _ = wait(
                set(pending),
                timeout=policy.heartbeat_poll_s,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                if _pool_hung(hb_dir, last_progress, policy.hang_timeout_s):
                    report.hangs += 1
                    abandoned = True
                    for future, chunk in pending.items():
                        future.cancel()
                        lost.extend(chunk)
                    pending.clear()
                    break
                continue
            last_progress = time.time()  # repro: noqa[REP101]
            for future in done:
                chunk = pending.pop(future)
                try:
                    for index, result in zip(chunk, future.result()):
                        complete(index, result)
                except KeyboardInterrupt:
                    # A worker saw SIGINT (Ctrl-C goes to the process
                    # group): treat it exactly like a local interrupt.
                    raise
                except BrokenProcessPool:
                    lost.extend(chunk)
                except Exception:
                    report.failures += 1
                    failed.extend(chunk)
    except KeyboardInterrupt:
        # Drain: drop queued chunks, let running ones finish, and keep
        # every result they produced — the checkpoint journal then
        # holds everything that actually completed.
        pool.shutdown(wait=False, cancel_futures=True)
        for future, chunk in list(pending.items()):
            # Chunks cancelled before starting (or dying mid-drain)
            # simply stay un-journaled; the resume run recomputes them.
            with suppress(Exception, CancelledError):
                for index, result in zip(chunk, future.result()):
                    complete(index, result)
        pool.shutdown(wait=True)
        raise
    finally:
        # A hung pool is abandoned (shutdown without waiting): joining
        # it would block on the very worker the timeout flagged.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
        with suppress(OSError):
            shutil.rmtree(hb_dir)
    return failed, lost


def _run_pool(
    payloads: Sequence[Any],
    runner: JobRunner,
    keys: Sequence[Optional[str]],
    seeds: Sequence[int],
    fan_out: Sequence[int],
    n_workers: int,
    policy: RetryPolicy,
    report: FabricReport,
    complete: Callable[[int, Any], None],
) -> None:
    """Supervise pool execution of ``fan_out`` with graceful degradation."""
    queue = list(fan_out)
    restarts_left = max(0, policy.pool_restarts)
    while True:
        failed, lost = _one_pool_pass(
            payloads, runner, queue, n_workers, policy, report, complete
        )
        # Poisoned chunks: re-run their jobs serially in-process, with
        # bounded retries, so one bad job cannot take the sweep down.
        for index in failed:
            report.serial_fallback += 1
            complete(index, _run_with_retries(
                payloads[index], runner, seeds[index], policy, report,
                _job_name(keys[index], index),
            ))
        if not lost:
            return
        if restarts_left > 0:
            restarts_left -= 1
            report.pool_restarts += 1
            warnings.warn(
                f"worker pool lost with {len(lost)} job(s) unfinished; "
                "restarting the pool",
                RuntimeWarning,
                stacklevel=3,
            )
            queue = sorted(lost)
            continue
        warnings.warn(
            f"worker pool lost again; degrading to in-process serial "
            f"execution for the remaining {len(lost)} job(s)",
            RuntimeWarning,
            stacklevel=3,
        )
        for index in sorted(lost):
            report.serial_fallback += 1
            complete(index, _run_with_retries(
                payloads[index], runner, seeds[index], policy, report,
                _job_name(keys[index], index),
            ))
        return


def run_sessions(
    specs: Sequence[SessionSpec],
    jobs: Optional[int] = None,
    cache: Any = None,
    journal: Optional["SweepJournal"] = None,
    policy: Optional[RetryPolicy] = None,
    report: Optional[FabricReport] = None,
) -> List[SessionResult]:
    """Run session jobs on :func:`run_jobs`, returning results in
    submission order regardless of completion order.

    ``cache`` follows :func:`resolve_cache`; only cacheable specs are
    keyed, so only they are cached and journaled.  A spec holding a
    shared ABR instance makes the whole call run in-process, in
    submission order, so that instance's cross-repetition state evolves
    exactly as a serial run's.  Serial, parallel, cached, resumed, and
    fault-recovered paths all yield bit-identical results.
    """
    return run_jobs(
        specs,
        run_spec,
        keys=[cache_key(spec) if spec.cacheable else None for spec in specs],
        seeds=[spec.seed for spec in specs],
        jobs=jobs if all(spec.parallel_safe for spec in specs) else None,
        cache=resolve_cache(cache),
        journal=journal,
        policy=policy,
        report=report,
    )


def run_jobs(
    payloads: Sequence[Any],
    runner: JobRunner,
    *,
    keys: Optional[Sequence[Optional[str]]] = None,
    seeds: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    journal: Optional["SweepJournal"] = None,
    policy: Optional[RetryPolicy] = None,
    report: Optional[FabricReport] = None,
) -> List[Any]:
    """Run jobs on the fault-tolerant fabric, results in submission order.

    This is the one place a keyed job's result is resolved, in order:
    the result ``cache``; then, only if some job missed the cache, the
    checkpoint ``journal``; then computation — chunked dispatch over
    ``jobs`` worker processes, heartbeat hang detection,
    deterministic-backoff retries, pool restart then serial
    degradation, Ctrl-C drain — for any picklable ``runner(payload)``
    pairs (session specs, arena cells, fleet cohort shards, …).  Each
    computed result is journaled and then cached; cache hits are never
    journaled, so a journal carries only computed work.

    ``keys`` are per-job content addresses (``None`` keeps that job out
    of cache and journal); ``seeds`` feed the deterministic retry
    backoff (defaults to the payload index).
    """
    policy = policy if policy is not None else RetryPolicy()
    stats = report if report is not None else FabricReport()
    job_keys: Sequence[Optional[str]] = (
        keys if keys is not None else [None] * len(payloads)
    )
    job_seeds: Sequence[int] = (
        seeds if seeds is not None else list(range(len(payloads)))
    )
    if len(job_keys) != len(payloads) or len(job_seeds) != len(payloads):
        raise ValueError("keys/seeds must match payloads in length")
    results: List[Any] = [None] * len(payloads)
    done: List[bool] = [False] * len(payloads)
    quarantined_before = cache.quarantined if cache is not None else 0

    def complete(index: int, result: Any) -> None:
        results[index] = result
        done[index] = True
        stats.computed += 1
        key = job_keys[index]
        if key is None:
            return
        if journal is not None:
            journal.record(key, result)
        if cache is not None:
            cache.put(key, result)

    try:
        missed: List[int] = []
        for index, key in enumerate(job_keys):
            hit = None
            if cache is not None and key is not None:
                hit = cache.get(key)
            if hit is None:
                missed.append(index)
                continue
            results[index] = hit
            done[index] = True
            stats.cache_hits += 1
        journal_map = journal.begin() if journal is not None and missed else {}
        fan_out: List[int] = []
        for index in missed:
            key = job_keys[index]
            resumed = journal_map.get(key) if key is not None else None
            if resumed is None:
                fan_out.append(index)
                continue
            results[index] = resumed
            done[index] = True
            stats.resumed += 1
        n_workers = effective_jobs(jobs, len(fan_out))
        if n_workers > 1:
            _run_pool(
                payloads, runner, job_keys, job_seeds, fan_out, n_workers,
                policy, stats, complete,
            )
        else:
            for index in fan_out:
                complete(index, _run_with_retries(
                    payloads[index], runner, job_seeds[index], policy, stats,
                    _job_name(job_keys[index], index),
                ))
    except KeyboardInterrupt:
        stats.interrupted = True
        raise SweepInterrupted(
            completed=sum(done),
            total=len(payloads),
            journal_path=journal.path if journal is not None else None,
        ) from None
    finally:
        if journal is not None:
            journal.close()
        if cache is not None:
            stats.quarantined += cache.quarantined - quarantined_before
    return results


def resolve_jobs(jobs: Optional[int]) -> Optional[int]:
    """Clamp a user-requested worker count to usable cores (CLI layer).

    ``0``/negative means all cores; an explicit request is capped at
    the affinity-mask core count, so ``--jobs 4`` on a single-core
    container runs in-process instead of paying worker pickle
    round-trips for nothing (BENCH 2026-08-06.2 measured a 0.96x
    "speedup" from a pool on one core).  Library callers that really
    want a pool regardless (e.g. the chaos harness exercising pool
    faults) pass their ``jobs`` straight through instead.
    """
    if jobs is None:
        return None
    cores = _available_cores()
    if jobs <= 0:
        return cores
    return min(jobs, cores)
