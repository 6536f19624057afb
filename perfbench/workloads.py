"""The four benchmark workloads, driven through the library's public API.

Each workload has a *cold* phase that fills empty stores (result cache,
trace store, journal, export directory) and a *warm* operation that is
repeated against the filled stores.  Inputs come only from the seed;
the program under test receives nothing but the generated specs.

Timing goes through a :class:`~perfbench.gauge.Meter`: ``begin()`` and
``end()`` bracket the library calls alone, so the output checks that
follow each call are never timed, and cold phases mark a segment
boundary at every finished job (through the journal's ``record``).  A
check that fails counts the operations it covers as failed; it never
raises.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.arena import (
    ArenaConfig,
    arena_jobs,
    artifact_bytes,
    make_arena_journal,
    run_arena,
    write_artifact,
)
from repro.arena.driver import ArenaRecord
from repro.arena.policies import policy_names
from repro.experiments.checkpoint import SweepJournal
from repro.experiments.parallel import (
    ResultCache,
    SessionSpec,
    cache_key,
    repetition_seeds,
    run_sessions,
)
from repro.study.cohort import FleetConfig, n_cohorts
from repro.study.fleet import fleet_journal, run_fleet
from repro.trace import TraceStore, analyze_view, record_session_trace, trace_key
from repro.validate.golden import session_digest

from perfbench.gauge import Meter

Named = Dict[str, Tuple[float, str]]

#: Session seed of the ``trace`` workload (``repro trace record --seed``).
TRACE_SEED = 11


def _sha(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def session_stats(results: List[Any]) -> Dict[str, int]:
    """Simulated statistics summed over sessions (deterministic)."""
    return {
        "sessions": len(results),
        "frames_processed": sum(r.frames_processed for r in results),
        "frames_rendered": sum(r.frames_rendered for r in results),
        "frames_dropped": sum(r.frames_dropped for r in results),
        "lmkd_kills": sum(r.lmkd_kills for r in results),
        "oom_kills": sum(r.oom_kills for r in results),
        "crashed": sum(1 for r in results if r.crashed),
    }


@dataclass
class Check:
    """Operations attempted and failed, with the first failure's reason."""

    attempted: int = 0
    failed: int = 0
    reason: str = ""

    def count(self, ops: int, ok: bool, why: str) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.reason = self.reason or why


class Workload:
    """``cold`` fills a directory; ``warm`` repeats one operation
    against the directory the first cold phase filled."""

    name = ""
    #: Cold phases per untraced run (the metric is their median).
    cold_reps = 3
    #: Warm operations in the fixed-size traced plan.
    traced_warm_ops = 10
    #: Operations one cold phase and one warm call cover.
    cold_ops = warm_ops = 0
    #: Warm calls are made in whole multiples of this, so that a run's
    #: warm samples cover every input equally often.
    warm_cycle = 1
    #: Whether ``cold_s`` is rescaled to the reference host speed (see
    #: :mod:`perfbench.gauge`).
    normalise_cold = True

    def __init__(self) -> None:
        self.check = Check()
        #: Digest and simulated statistics of the first cold phase.
        self.digest: Dict[str, Any] = {}
        self.quarantined = 0
        #: The first cold phase's directory: warm operations read it.
        self.workdir: Optional[Path] = None

    def cold(self, workdir: Path, meter: Meter) -> None:
        raise NotImplementedError

    def warm(self, meter: Meter) -> None:
        raise NotImplementedError

    def named_metrics(self, cold_s: float, p50_ms: float, p90_ms: float) -> Named:
        """The end-to-end metrics under this workload's own names."""
        raise NotImplementedError

    def _tally(self, ops: int, ok: bool, quarantined: int, why: str) -> None:
        """Count ``ops`` operations; a quarantined artifact fails them."""
        self.quarantined += quarantined
        if quarantined:
            ok, why = False, "storage quarantined an artifact"
        self.check.count(ops, ok, why)

    def _settle(self, digest: Dict[str, Any], workdir: Path) -> bool:
        """Keep the first cold phase's digest and directory; False if a
        later cold phase's digest differs (the simulator is
        deterministic, so every rep must repeat the first)."""
        if self.workdir is None:
            self.workdir, self.digest = workdir, digest
        return digest == self.digest


# ======================================================================
# sweep: the Fig-9/11 drop grid, cold cache then warm cache
# ======================================================================

class Sweep(Workload):
    name = "sweep"
    traced_warm_ops = 10

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        if size == "smoke":
            devices, pressures, encodings, reps, duration = (
                ("nexus5",), ("normal", "critical"), (("480p", 60),), 1, 2.0)
        else:
            devices = ("nokia1", "nexus5", "nexus6p")
            pressures = ("normal", "moderate", "low", "critical")
            encodings = (("480p", 60), ("720p", 30))
            reps, duration = 2, 8.0
        self.specs = [
            SessionSpec(device, res, fps, pressure, None, duration, rep_seed)
            for device in devices
            for pressure in pressures
            for res, fps in encodings
            for rep_seed in repetition_seeds(seed, reps)
        ]
        self.results: List[Any] = []
        self.cold_ops = self.warm_ops = len(self.specs)

    def cold(self, workdir: Path, meter: Meter) -> None:
        cache = ResultCache(workdir / "cache")
        journal = SweepJournal(workdir / "cold.journal", resume=False)
        journal.record = meter.after(journal.record)  # type: ignore[method-assign]
        meter.begin()
        results = run_sessions(self.specs, cache=cache, journal=journal)
        meter.end()
        n = len(self.specs)
        ok = len(results) == n and all(r is not None for r in results)
        if ok:
            self.results = self.results or results
            ok = self._settle({
                "session_digest": _sha([session_digest(r) for r in results]),
                "stats": session_stats(results),
            }, workdir)
        self._tally(n, ok, cache.quarantined, "cold sweep results missing or not repeatable")

    def warm(self, meter: Meter) -> None:
        assert self.workdir is not None
        cache = ResultCache(self.workdir / "cache")
        journal = SweepJournal(self.workdir / "warm.journal", resume=False)
        meter.begin()
        results = run_sessions(self.specs, cache=cache, journal=journal)
        meter.end()
        n = len(self.specs)
        ok = results == self.results and cache.hits == n
        self._tally(n, ok, cache.quarantined, "warm results differ from cold")

    def named_metrics(self, cold_s: float, p50_ms: float, p90_ms: float) -> Named:
        return {
            "sweep_cold_s": (cold_s, "s"),
            "sweep_warm_p50_ms": (p50_ms, "ms"),
            "sweep_warm_p90_ms": (p90_ms, "ms"),
        }


# ======================================================================
# trace: record traced sessions into a store, then load and analyze
# ======================================================================

class Trace(Workload):
    name = "trace"
    traced_warm_ops = 18

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        if size == "smoke":
            devices, pressures, duration = ("nexus5",), ("normal", "critical"), 3.0
        else:
            devices = ("nokia1", "nexus5", "nexus6p")
            pressures = ("normal", "moderate", "critical")
            duration = 10.0
        # The sessions use the canonical trace seed (``repro trace
        # record``'s default) and the run's seed only orders them: the
        # replay cost of the nine traces varies by about a fifth from
        # one session seed to the next, which would swamp any change
        # this workload is meant to show.
        self.specs = [
            SessionSpec(device, "720p", 30, pressure, None, duration, TRACE_SEED)
            for device in devices
            for pressure in pressures
        ]
        random.Random(seed).shuffle(self.specs)
        self.keys = [trace_key(cache_key(spec)) for spec in self.specs]
        #: Trace key -> analytics digest of the live recorder.
        self.live: Dict[str, str] = {}
        self._turn = 0
        self.cold_ops, self.warm_ops = len(self.specs), 1
        self.warm_cycle = len(self.specs)

    def cold(self, workdir: Path, meter: Meter) -> None:
        store = TraceStore(workdir / "traces")
        live: Dict[str, str] = {}
        results = []
        for spec, key in zip(self.specs, self.keys):
            meter.begin()
            result, recorder = record_session_trace(spec)
            store.save(key, recorder, meta={"device": spec.device,
                                            "pressure": spec.pressure})
            meter.end()
            live[key] = analyze_view(recorder).digest()
            results.append(result)
        ok = all(store.contains(k) for k in self.keys) and self._settle({
            "session_digest": _sha([session_digest(r) for r in results]),
            "analytics_digest": _sha(sorted(live.values())),
            "stats": session_stats(results),
        }, workdir)
        self._tally(len(self.specs), ok, store.quarantined,
                    "trace missing from the store or not repeatable")
        self.live = self.live or live

    def warm(self, meter: Meter) -> None:
        """Load one trace from the store and analyze it; successive calls
        take the traces in turn."""
        assert self.workdir is not None
        key = self.keys[self._turn % len(self.keys)]
        self._turn += 1
        store = TraceStore(self.workdir / "traces")
        meter.begin()
        view = store.load(key)
        analytics = analyze_view(view) if view is not None else None
        meter.end()
        ok = analytics is not None and analytics.digest() == self.live[key]
        self._tally(1, ok, store.quarantined, "replayed analytics differ from live analytics")

    def named_metrics(self, cold_s: float, p50_ms: float, p90_ms: float) -> Named:
        return {
            "trace_record_s": (cold_s, "s"),
            "trace_replay_p50_ms": (p50_ms, "ms"),
            "trace_replay_p90_ms": (p90_ms, "ms"),
        }


# ======================================================================
# arena: the default policy grid plus the leaderboard artifact
# ======================================================================

class Arena(Workload):
    name = "arena"
    traced_warm_ops = 5

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        if size == "smoke":
            self.config = ArenaConfig(
                policies=("buffer", "hybrid"), devices=("nexus5",),
                pressures=("normal", "critical"), reps=1, duration_s=2.0,
                base_seed=seed,
            )
        else:
            # The default grid and seed schedule (``repro arena``); the
            # run's seed only orders policies, devices and pressures, as
            # for the trace workload: session outcomes, and with them the
            # grid's cost, move by about a tenth with the session seeds.
            order = random.Random(seed)
            policies = sorted(policy_names())
            devices = list(ArenaConfig.devices)
            pressures = list(ArenaConfig.pressures)
            for names in (policies, devices, pressures):
                order.shuffle(names)
            self.config = ArenaConfig(
                policies=tuple(policies), devices=tuple(devices),
                pressures=tuple(pressures), reps=1, duration_s=10.0,
            )
        self.grid = arena_jobs(self.config)
        self.cold_ops = self.warm_ops = len(self.grid)

    def _run(self, workdir: Path, meter: Meter, cold: bool) -> Tuple[bool, Any, ResultCache]:
        """The grid through ``run_arena``; a cold run also writes the
        leaderboard artifact.  True if the leaderboard verifies."""
        cache = ResultCache(workdir / "arena-cache", result_type=ArenaRecord)
        journal = make_arena_journal(self.grid, path=workdir / "arena.journal", resume=False)
        if cold:
            journal.record = meter.after(journal.record)  # type: ignore[method-assign]
        meter.begin()
        result = run_arena(self.config, cache=cache, journal=journal)
        if cold:
            json_path, _ = write_artifact(result.leaderboard, workdir / "leaderboard")
        meter.end()
        try:
            data = artifact_bytes(result.leaderboard)
        except ValueError:
            return False, result, cache
        ok = len(result.records) == len(self.grid)
        if cold:
            ok = ok and json_path.read_bytes() == data
        return ok, result, cache

    def cold(self, workdir: Path, meter: Meter) -> None:
        ok, result, cache = self._run(workdir, meter, cold=True)
        records = result.records
        ok = ok and self._settle({
            "leaderboard_digest": result.leaderboard["digest"],
            "stats": {
                "sessions": len(records),
                "crashed": sum(1 for r in records if r.crashed),
                "switches": sum(r.metrics.switch_count for r in records),
            },
        }, workdir)
        self._tally(len(self.grid), ok, cache.quarantined,
                    "leaderboard does not verify or is not repeatable")

    def warm(self, meter: Meter) -> None:
        """The grid again, every record a cache hit, and the leaderboard
        rebuilt from them (not written: its fsyncs are timed cold)."""
        assert self.workdir is not None
        ok, result, cache = self._run(self.workdir, meter, cold=False)
        ok = (
            ok
            and result.leaderboard["digest"] == self.digest["leaderboard_digest"]
            and cache.hits == len(self.grid)
        )
        self._tally(len(self.grid), ok, cache.quarantined, "warm leaderboard differs from cold")

    def named_metrics(self, cold_s: float, p50_ms: float, p90_ms: float) -> Named:
        return {
            "arena_s": (cold_s, "s"),
            "arena_warm_p50_ms": (p50_ms, "ms"),
            "arena_warm_p90_ms": (p90_ms, "ms"),
        }


# ======================================================================
# fleet: the §3 population engine with journal and export, then resume
# ======================================================================

class Fleet(Workload):
    name = "fleet"
    traced_warm_ops = 5
    # The cohort kernels are numpy and zlib over large arrays, which the
    # host's speed swings move less than the interpreter-bound gauge
    # kernel: over ten runs the normalised cold phase spread 18 % (IQR
    # over median), the measured one 10 %.
    normalise_cold = False

    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        if size == "smoke":
            self.config = FleetConfig(n_devices=300, hours_scale=0.003,
                                      cohort_size=100, seed=seed)
        else:
            self.config = FleetConfig(n_devices=4096, hours_scale=0.003, seed=seed)
        self.cohorts = n_cohorts(self.config)
        self.cold_ops = self.warm_ops = self.cohorts

    def _run(self, workdir: Path, meter: Meter, resume: bool) -> Any:
        journal = fleet_journal(workdir / "fleet.journal", resume=resume)
        if not resume:
            journal.record = meter.after(journal.record)  # type: ignore[method-assign]
        meter.begin()
        result = run_fleet(self.config, journal=journal, export_dir=workdir / "export")
        meter.end()
        return result

    def cold(self, workdir: Path, meter: Meter) -> None:
        result = self._run(workdir, meter, resume=False)
        ok = (
            result.summary.n_devices == self.config.n_devices
            and len(result.export_paths) == self.cohorts
            and all(path.exists() for path in result.export_paths)
        )
        ok = self._settle({
            "table1_digest": _sha(result.summary.table1()),
            "stats": {
                "devices": result.summary.n_devices,
                "kept": result.summary.n_kept,
                "cohorts": self.cohorts,
            },
        }, workdir) and ok
        self._tally(self.cohorts, ok, 0, "fleet device count or export mismatch")

    def warm(self, meter: Meter) -> None:
        assert self.workdir is not None
        result = self._run(self.workdir, meter, resume=True)
        ok = (
            result.report.resumed == self.cohorts
            and result.summary.n_devices == self.config.n_devices
            and _sha(result.summary.table1()) == self.digest["table1_digest"]
        )
        self._tally(self.cohorts, ok, 0, "resumed fleet differs from the run")

    def named_metrics(self, cold_s: float, p50_ms: float, p90_ms: float) -> Named:
        return {
            "fleet_devices_per_s": (self.config.n_devices / cold_s, "devices/s"),
            "fleet_resume_p50_ms": (p50_ms, "ms"),
            "fleet_resume_p90_ms": (p90_ms, "ms"),
        }


WORKLOADS: Dict[str, type] = {w.name: w for w in (Sweep, Trace, Arena, Fleet)}


def warm_up(name: str, workdir: Path) -> None:
    """One smoke-size cold phase: imports, lazy scipy, first-call costs."""
    meter = Meter(calibrate=False)
    meter.op()
    WORKLOADS[name](seed=0, size="smoke").cold(workdir, meter)
