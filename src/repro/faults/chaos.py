"""Canonical chaos scenarios: prove the fabric's guarantees hold.

Each scenario runs a small §4-style sweep (two devices × two pressure
regimes × two repetitions) under one injected failure mode and checks
the acceptance property from the robustness issue: **the results are
bit-identical to a fault-free serial run** (same pickle digest), and
resumed sweeps replay completed jobs instead of recomputing them.

Everything is deterministic: fault targets are chosen by hashing the
scenario seed (never wall clock or pids), fault budgets are enforced by
the injector's ledger, and every session's result is a pure function of
its spec — which is precisely why recovery by re-execution is sound.

Scenarios (``repro chaos --scenarios ...``):

``kill``
    a worker process dies mid-job (``os._exit``); the pool breaks, is
    restarted once, and the sweep completes.
``stall``
    a job sleeps past the hang timeout; heartbeat monitoring abandons
    the pool and the remaining jobs run serially in-process.
``error``
    a job raises twice; bounded retries with deterministic backoff
    jitter re-run it to success with unperturbed seeds.
``corrupt``
    two cache entries are damaged (one truncated, one bit-flipped);
    both are quarantined with a warning and recomputed.
``interrupt``
    a Ctrl-C lands mid-sweep; in-flight work drains to the checkpoint
    journal, and a ``--resume`` run reproduces the same digests without
    re-running completed jobs.

The ``storage-*`` family exercises the durability layer itself: each
scenario arms one storage fault at the result cache's publish point
(``storage:result-cache``), runs the sweep, then runs it again against
the damaged store with no plan installed.  The acceptance property is
three-fold: the recovery run's results are bit-identical to the
fault-free baseline, the store's degradation counters show the expected
recovery path (quarantine + recompute, or plain recompute), and a
post-recovery ``repro fsck`` scrub of the store reports **zero**
integrity findings — recovery converges to a provably clean store.

``storage-torn``
    a publish loses its tail after the rename; the envelope checksum
    catches it, the entry is quarantined and recomputed.
``storage-crash``
    the writer dies between staging and ``os.replace``; the artifact
    never appears, the orphaned tmp file is swept on republish.
``storage-bitrot``
    one byte of a published artifact flips; checksum-verified reads
    quarantine and recompute it.
``storage-enospc``
    a publish fails on a full disk; nothing partial is left behind and
    the job's result is simply recomputed next run.
``storage-readonly``
    the cache directory rejects writes; the store degrades to uncached
    operation with a single warning and the sweep still completes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.checkpoint import SweepJournal
from ..experiments.parallel import (
    FabricReport,
    ResultCache,
    RetryPolicy,
    SessionSpec,
    SweepInterrupted,
    cache_key,
    run_sessions,
)
from ..experiments.runner import cell_specs
from ..storage import scrub
from ..video.player import SessionResult
from .injector import Fault, installed_plan

#: Storage chaos scenarios: one per storage fault kind, exercising the
#: ``repro.storage`` publish discipline end to end.
STORAGE_SCENARIOS = (
    "storage-torn",
    "storage-crash",
    "storage-bitrot",
    "storage-enospc",
    "storage-readonly",
)

#: Scenario registry order (also the CLI default).
SCENARIOS = (
    "kill", "stall", "error", "corrupt", "interrupt"
) + STORAGE_SCENARIOS


@dataclass
class ScenarioOutcome:
    """One chaos scenario's verdict."""

    name: str
    passed: bool
    detail: str
    fabric: Dict[str, int] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "fabric": self.fabric,
        }


def canonical_specs(
    seed: int = 100, duration_s: float = 4.0
) -> List[SessionSpec]:
    """The chaos sweep: a miniature §4 drop-rate grid (8 session jobs)."""
    specs: List[SessionSpec] = []
    for device in ("nokia1", "nexus5"):
        for pressure in ("normal", "critical"):
            specs.extend(cell_specs(
                device=device,
                resolution="480p",
                fps=30,
                pressure=pressure,
                duration_s=duration_s,
                repetitions=2,
                base_seed=seed,
            ))
    return specs


def results_digest(results: Sequence[SessionResult]) -> str:
    """Bit-level identity of a result list (the acceptance criterion).

    Canonicalized through ``repr(dataclasses.astuple(...))``: float repr
    is exact (shortest round-trip), so two lists digest equally iff
    every field — including every float's bit pattern — is identical.
    Raw ``pickle.dumps`` would be wrong here: its memo encodes object
    *identity*, which legitimately differs between in-process results
    and results that crossed a worker-process boundary.
    """
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(repr(dataclasses.astuple(result)).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _fabric_payload(report: FabricReport) -> Dict[str, int]:
    return {
        "computed": report.computed,
        "cache_hits": report.cache_hits,
        "resumed": report.resumed,
        "failures": report.failures,
        "retries": report.retries,
        "hangs": report.hangs,
        "pool_restarts": report.pool_restarts,
        "serial_fallback": report.serial_fallback,
        "quarantined": report.quarantined,
    }


class ChaosHarness:
    """Shared state for one ``repro chaos`` invocation.

    Computes the fault-free serial baseline once, then runs each
    requested scenario against it.
    """

    def __init__(
        self,
        jobs: int = 2,
        seed: int = 7,
        duration_s: float = 4.0,
        work_dir: Optional[Path] = None,
    ) -> None:
        self.jobs = max(2, jobs)
        self.seed = seed
        self.work_dir = (
            Path(work_dir) if work_dir is not None
            else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        )
        self.specs = canonical_specs(duration_s=duration_s)
        self.keys = [cache_key(spec) for spec in self.specs]
        baseline = run_sessions(self.specs, jobs=None, cache=False)
        self.baseline_digest = results_digest(baseline)

    # ------------------------------------------------------------------
    def _targets(self, count: int, salt: str) -> List[str]:
        """Deterministically pick ``count`` distinct target job keys."""
        material = f"chaos:{self.seed}:{salt}".encode()
        rng = random.Random(
            int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        )
        return rng.sample(sorted(self.keys), count)

    def _verdict(
        self,
        name: str,
        digest: str,
        report: FabricReport,
        extra_ok: bool = True,
        extra_detail: str = "",
    ) -> ScenarioOutcome:
        match = digest == self.baseline_digest
        detail = "digest matches fault-free serial run" if match else (
            f"DIGEST MISMATCH ({digest[:12]} != "
            f"{self.baseline_digest[:12]})"
        )
        if extra_detail:
            detail += f"; {extra_detail}"
        return ScenarioOutcome(
            name=name,
            passed=match and extra_ok,
            detail=detail,
            fabric=_fabric_payload(report),
        )

    # ------------------------------------------------------------------
    def run_kill(self) -> ScenarioOutcome:
        [target] = self._targets(1, "kill")
        report = FabricReport()
        with installed_plan(
            [Fault(point=f"job:{target}", kind="kill")],
            self.work_dir / "kill",
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results = run_sessions(
                    self.specs, jobs=self.jobs, cache=False, report=report
                )
        recovered = report.pool_restarts > 0 or report.serial_fallback > 0
        return self._verdict(
            "kill", results_digest(results), report,
            extra_ok=recovered,
            extra_detail=f"pool restarts {report.pool_restarts}, "
                         f"serial fallback {report.serial_fallback}",
        )

    def run_stall(self) -> ScenarioOutcome:
        [target] = self._targets(1, "stall")
        report = FabricReport()
        policy = RetryPolicy(
            hang_timeout_s=0.6, heartbeat_poll_s=0.1, backoff_base_s=0.01
        )
        with installed_plan(
            [Fault(point=f"job:{target}", kind="stall", stall_s=2.5)],
            self.work_dir / "stall",
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results = run_sessions(
                    self.specs, jobs=self.jobs, cache=False,
                    policy=policy, report=report,
                )
        return self._verdict(
            "stall", results_digest(results), report,
            extra_ok=report.hangs >= 1,
            extra_detail=f"hangs detected {report.hangs}",
        )

    def run_error(self) -> ScenarioOutcome:
        [target] = self._targets(1, "error")
        report = FabricReport()
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01)
        with installed_plan(
            [Fault(point=f"job:{target}", kind="raise", times=2)],
            self.work_dir / "error",
        ):
            results = run_sessions(
                self.specs, jobs=self.jobs, cache=False,
                policy=policy, report=report,
            )
        return self._verdict(
            "error", results_digest(results), report,
            extra_ok=report.failures >= 1,
            extra_detail=f"failures {report.failures}, "
                         f"retries {report.retries}",
        )

    def run_corrupt(self) -> ScenarioOutcome:
        root = self.work_dir / "corrupt-cache"
        populate = ResultCache(root)
        run_sessions(self.specs, jobs=None, cache=populate)
        truncate_key, flip_key = self._targets(2, "corrupt")
        trunc_path = populate.path_for(truncate_key)
        trunc_path.write_bytes(trunc_path.read_bytes()[:16])
        flip_path = populate.path_for(flip_key)
        blob = bytearray(flip_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        flip_path.write_bytes(bytes(blob))

        report = FabricReport()
        store = ResultCache(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_sessions(
                self.specs, jobs=self.jobs, cache=store, report=report
            )
        quarantine = sorted(
            p.name for p in (root / "quarantine").glob("*.pkl")
        )
        return self._verdict(
            "corrupt", results_digest(results), report,
            extra_ok=(
                report.quarantined == 2
                and len(quarantine) == 2
                and report.computed == 2
                and report.cache_hits == len(self.specs) - 2
            ),
            extra_detail=f"quarantined {report.quarantined}, "
                         f"recomputed {report.computed}",
        )

    def run_interrupt(self) -> ScenarioOutcome:
        journal_path = self.work_dir / "interrupt.journal"
        [target] = self._targets(1, "interrupt")
        first = FabricReport()
        interrupted = False
        checkpointed = 0
        with installed_plan(
            [Fault(point=f"job:{target}", kind="interrupt")],
            self.work_dir / "interrupt",
        ):
            try:
                run_sessions(
                    self.specs, jobs=self.jobs, cache=False,
                    journal=SweepJournal(journal_path, resume=False),
                    report=first,
                )
            except SweepInterrupted as exc:
                interrupted = True
                checkpointed = exc.completed
        if not interrupted:
            return ScenarioOutcome(
                "interrupt", False,
                "injected interrupt did not stop the sweep",
                _fabric_payload(first),
            )

        resumed = FabricReport()
        results = run_sessions(
            self.specs, jobs=self.jobs, cache=False,
            journal=SweepJournal(journal_path, resume=True),
            report=resumed,
        )
        return self._verdict(
            "interrupt", results_digest(results), resumed,
            extra_ok=(
                resumed.resumed >= checkpointed
                and resumed.computed == len(self.specs) - resumed.resumed
            ),
            extra_detail=(
                f"checkpointed {checkpointed} before interrupt, "
                f"resumed {resumed.resumed}, "
                f"recomputed {resumed.computed}"
            ),
        )

    # ------------------------------------------------------------------
    def run_storage(self, kind: str) -> ScenarioOutcome:
        """One storage-fault scenario (see module docstring).

        Serial on purpose: publishes happen host-side in spec order, so
        the exactly-once fault deterministically lands on the *first*
        cache publish regardless of machine or worker count.
        """
        label = f"storage-{kind}"
        root = self.work_dir / f"{label}-cache"

        # Run 1: the sweep whose first cache publish takes the fault.
        faulted = ResultCache(root)
        first = FabricReport()
        with installed_plan(
            [Fault(point="storage:result-cache", kind=kind)],
            self.work_dir / label,
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run_sessions(
                    self.specs, jobs=None, cache=faulted, report=first
                )

        # Run 2: recovery — a fresh store over the damaged directory,
        # no plan installed.
        store = ResultCache(root)
        report = FabricReport()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_sessions(
                self.specs, jobs=None, cache=store, report=report
            )

        n = len(self.specs)
        if kind in ("torn", "bitrot"):
            # The damaged entry is caught by its envelope checksum,
            # quarantined, and recomputed; the other 7 replay from cache.
            recovery_ok = (
                store.quarantined == 1
                and report.computed == 1
                and report.cache_hits == n - 1
            )
        elif kind in ("crash", "enospc"):
            # The faulted publish left no (visible) artifact: one plain
            # miss, zero quarantines.
            recovery_ok = (
                first.computed == n
                and faulted.report.publish_errors == 1
                and store.quarantined == 0
                and report.computed == 1
                and report.cache_hits == n - 1
            )
        elif kind == "readonly":
            # The store disabled itself after the first EROFS, so run 1
            # cached nothing and run 2 recomputes everything.
            recovery_ok = (
                faulted.report.readonly_fallbacks == 1
                and report.computed == n
                and report.cache_hits == 0
            )
        else:  # pragma: no cover - registry and kinds move together
            raise KeyError(f"unknown storage fault kind {kind!r}")

        # The recovered store must scrub clean: no orphan tmp files,
        # every artifact matching the envelope sealed inside it.
        fsck = scrub([root])
        return self._verdict(
            label, results_digest(results), report,
            extra_ok=recovery_ok and fsck.clean,
            extra_detail=(
                f"publish errors {faulted.report.publish_errors}, "
                f"quarantined {store.quarantined}, "
                f"recomputed {report.computed}, "
                f"fsck integrity findings {len(fsck.integrity_findings)}"
            ),
        )

    # ------------------------------------------------------------------
    def run(self, names: Sequence[str]) -> List[ScenarioOutcome]:
        runners = {
            "kill": self.run_kill,
            "stall": self.run_stall,
            "error": self.run_error,
            "corrupt": self.run_corrupt,
            "interrupt": self.run_interrupt,
        }
        for scenario in STORAGE_SCENARIOS:
            kind = scenario[len("storage-"):]
            runners[scenario] = (
                lambda fault_kind=kind: self.run_storage(fault_kind)
            )
        outcomes: List[ScenarioOutcome] = []
        for name in names:
            if name not in runners:
                known = ", ".join(SCENARIOS)
                raise KeyError(f"unknown chaos scenario {name!r} ({known})")
            outcomes.append(runners[name]())
        return outcomes


def run_chaos(
    scenarios: Optional[Sequence[str]] = None,
    jobs: int = 2,
    seed: int = 7,
    duration_s: float = 4.0,
    work_dir: Optional[Path] = None,
) -> List[ScenarioOutcome]:
    """Run the named chaos scenarios (all of them by default)."""
    harness = ChaosHarness(
        jobs=jobs, seed=seed, duration_s=duration_s, work_dir=work_dir
    )
    return harness.run(list(scenarios) if scenarios else list(SCENARIOS))
