"""Command-line interface.

The subcommands mirror the library's main entry points::

    repro run      --device nokia1 --resolution 720p --fps 60 --pressure moderate
    repro sweep    --devices nokia1,nexus5 --pressures normal,critical
    repro study    --scale 0.15 --seed 3
    repro trace    --pressure moderate --duration 25
    repro trace record  --devices nexus5 --pressures moderate,critical
    repro trace analyze --jobs 4
    repro trace ls
    repro validate --level deep
    repro lint     src/repro --json
    repro chaos    --scenarios kill,interrupt,storage-torn
    repro fsck     --root ~/.cache/repro/sessions --json
    repro arena    --policies buffer,pressure,hybrid --jobs 4

Every subcommand prints a human-readable report by default; ``--json``
emits machine-readable output instead (for notebooks and dashboards).

``repro sweep`` checkpoints every completed job to a journal (under the
cache directory by default): an interrupted sweep exits with status 130
and a hint, and ``--resume`` continues it bit-identically without
re-running completed jobs (see ``docs/robustness.md``).  ``repro
arena`` rides the same fabric for the ABR policy competition and emits
a content-addressed leaderboard artifact (see ``docs/arena.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from .core.abr import MemoryAwareAbr
from .core.qoe import summarize
from .core.session import DEVICE_FACTORIES
from .experiments.checkpoint import SweepJournal, default_journal_path
from .experiments.parallel import (
    FabricReport,
    SessionSpec,
    SweepInterrupted,
    resolve_jobs,
    run_sessions,
)
from .experiments.runner import cell_specs, run_cells
from .experiments.trace_experiments import profiled_run
from .sched.states import ThreadState
from .video.encoding import RESOLUTION_ORDER, SUPPORTED_FRAME_RATES

#: Journal family tag for ``--record-trace`` runs: same payloads as a
#: session sweep but keyed by trace address, so the two never mix.
TRACE_RECORD_JOURNAL_MAGIC = "repro-trace-record"


def _session_payload(result) -> Dict[str, Any]:
    qoe = summarize(result)
    return {
        "device": result.device_name,
        "client": result.client_name,
        "resolution": result.resolution,
        "fps": result.fps,
        "frames_processed": result.frames_processed,
        "frames_rendered": result.frames_rendered,
        "drop_rate": round(result.drop_rate, 4),
        "effective_drop_rate": round(result.effective_drop_rate, 4),
        "crashed": result.crashed,
        "crash_reason": result.crash_reason,
        "crash_time_s": result.crash_time_s,
        "rebuffer_s": round(result.rebuffer_s, 3),
        "pss_mean_mb": round(result.pss_mean_mb, 1),
        "mos": round(qoe.mos, 2),
        "signals": [
            (round(t, 2), level.name) for t, level in result.signals
        ],
    }


def _interrupted(exc: SweepInterrupted, label: str, unit: str) -> int:
    """Report a drained Ctrl-C (with a resume hint when a journal holds
    the completed work) and return the conventional exit status 130."""
    print(
        f"{label} interrupted: {exc.completed}/{exc.total} {unit} "
        "checkpointed",
        file=sys.stderr,
    )
    if exc.journal_path is not None:
        print(
            "resume with the same command plus --resume "
            f"(journal: {exc.journal_path})",
            file=sys.stderr,
        )
    return 130


def cmd_run(args: argparse.Namespace) -> int:
    spec = SessionSpec(
        device=args.device,
        resolution=args.resolution,
        fps=args.fps,
        pressure=args.pressure,
        client=args.client,
        duration_s=args.duration,
        seed=args.seed,
        organic_apps=args.organic_apps,
        abr=MemoryAwareAbr if args.memory_aware_abr else None,
    )
    if args.record_trace:
        from .trace.store import TraceStore
        from .trace.replay import record_traces

        store = TraceStore(args.record_trace)
        result = record_traces(
            [spec], store, cache=False if args.no_cache else None,
        )[0]
        if result is None:
            # Trace already recorded and the result fell out of the
            # cache: re-run the session (untraced) for the report.
            result = run_sessions(
                [spec], jobs=resolve_jobs(args.jobs),
                cache=False if args.no_cache else None,
            )[0]
    else:
        result = run_sessions(
            [spec], jobs=resolve_jobs(args.jobs),
            cache=False if args.no_cache else None,
        )[0]
    payload = _session_payload(result)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{payload['device']} {payload['resolution']}@{payload['fps']} "
          f"({args.pressure} pressure, {payload['client']})")
    print(f"  rendered {payload['frames_rendered']}/{payload['frames_processed']} "
          f"frames, drop rate {payload['drop_rate'] * 100:.1f}%, "
          f"MOS {payload['mos']}")
    print(f"  mean PSS {payload['pss_mean_mb']} MB, "
          f"rebuffered {payload['rebuffer_s']} s")
    if payload["crashed"]:
        print(f"  CRASHED at {payload['crash_time_s']:.1f}s "
              f"({payload['crash_reason']})")
    if payload["signals"]:
        print(f"  OnTrimMemory signals: {payload['signals']}")
    return 0


def _sweep_with_traces(
    args: argparse.Namespace,
    per_cell,
    flat,
    journal: Optional[SweepJournal],
    report: FabricReport,
):
    """Record-while-sweeping: every job runs traced, its trace landing
    in the ``--record-trace`` store, its result in the usual cache."""
    from .experiments.runner import _cell_result
    from .trace.replay import record_traces
    from .trace.store import TraceStore

    store = TraceStore(args.record_trace)
    results = record_traces(
        flat, store,
        jobs=resolve_jobs(args.jobs),
        journal=journal,
        report=report,
        cache=False if args.no_cache else None,
    )
    missing = [i for i, result in enumerate(results) if result is None]
    if missing:
        # Traces already recorded but results no longer cached:
        # re-run those sessions untraced for the sweep report.
        filled = run_sessions(
            [flat[i] for i in missing],
            jobs=resolve_jobs(args.jobs),
            cache=False if args.no_cache else None,
            report=report,
        )
        for index, result in zip(missing, filled):
            results[index] = result
    cells = []
    cursor = 0
    for specs in per_cell:
        chunk = results[cursor:cursor + len(specs)]
        cursor += len(specs)
        cells.append(_cell_result(specs, chunk))
    return cells


def cmd_sweep(args: argparse.Namespace) -> int:
    devices = args.devices.split(",")
    pressures = args.pressures.split(",")
    resolutions = args.resolutions.split(",")
    grid = [
        (device, resolution, fps, pressure)
        for device in devices
        for resolution in resolutions
        for fps in args.fps
        for pressure in pressures
    ]
    cell_kwargs = [
        dict(
            device=device, resolution=resolution, fps=fps,
            pressure=pressure, duration_s=args.duration,
            repetitions=args.reps,
        )
        for device, resolution, fps, pressure in grid
    ]
    per_cell = [cell_specs(**cell) for cell in cell_kwargs]
    flat = [spec for specs in per_cell for spec in specs]
    journal: Optional[SweepJournal] = None
    if not args.no_journal:
        if args.journal:
            journal_path = args.journal
        else:
            journal_path = str(default_journal_path(flat))
            if args.record_trace:
                # Same spec digest, different job family (trace keys):
                # keep the two journal files apart.
                journal_path += ".trace"
        if args.record_trace:
            journal = SweepJournal(
                journal_path, resume=args.resume,
                magic=TRACE_RECORD_JOURNAL_MAGIC,
            )
        else:
            journal = SweepJournal(journal_path, resume=args.resume)
    report = FabricReport()
    try:
        if args.record_trace:
            cells = _sweep_with_traces(
                args, per_cell, flat, journal, report
            )
        else:
            cells = run_cells(
                cell_kwargs,
                jobs=resolve_jobs(args.jobs),
                cache=False if args.no_cache else None,
                journal=journal,
                report=report,
            )
    except SweepInterrupted as exc:
        return _interrupted(exc, "sweep", "jobs")
    rows = []
    for (device, resolution, fps, pressure), cell in zip(grid, cells):
        stats = cell.stats
        rows.append({
            "device": device,
            "resolution": resolution,
            "fps": fps,
            "pressure": pressure,
            "mean_drop_rate": round(stats.mean_drop_rate, 4),
            "drop_rate_ci": round(stats.drop_rate_ci, 4),
            "crash_rate": round(stats.crash_rate, 4),
            "mean_pss_mb": round(stats.mean_pss_mb, 1),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['device']:8s} {row['resolution']:>6}@{row['fps']:<2} "
              f"{row['pressure']:9s} drop {row['mean_drop_rate'] * 100:5.1f}% "
              f"± {row['drop_rate_ci'] * 100:4.1f} "
              f"crash {row['crash_rate'] * 100:5.1f}%")
    print(f"fabric: {report.summary()}")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    """The §3 population study on the vectorized cohort fleet engine.

    Table 1 summary + Figure 6 transitions, computed from exact
    mergeable cohort counters — memory stays O(cohorts), cohort shards
    checkpoint to a journal, and an interrupted run resumes with
    ``--resume`` exactly like sweeps.
    """
    from pathlib import Path

    from .study.fleet import (
        FleetConfig,
        default_fleet_journal_path,
        fleet_journal,
        run_fleet,
    )

    try:
        config = FleetConfig(
            n_devices=args.devices,
            hours_scale=args.scale,
            seed=args.seed,
            cohort_size=args.cohort_size,
        )
    except ValueError as exc:
        print(f"study: {exc}", file=sys.stderr)
        return 2
    journal = None
    if not args.no_journal:
        path = args.journal or default_fleet_journal_path(config)
        journal = fleet_journal(path, resume=args.resume)
    report = FabricReport()
    try:
        result = run_fleet(
            config,
            jobs=resolve_jobs(args.jobs),
            journal=journal,
            export_dir=Path(args.export) if args.export else None,
            report=report,
        )
    except SweepInterrupted as exc:
        return _interrupted(exc, "study", "cohorts")
    fleet = result.summary
    summary = fleet.table1()
    transitions = fleet.transitions()
    if args.json:
        payload = {
            "devices": fleet.n_devices,
            "devices_kept": fleet.n_kept,
            "summary": summary,
            "transitions": transitions,
            "state_digest": fleet.state_digest(),
            "fabric": report.summary(),
        }
        if result.export_paths:
            payload["export"] = [str(p) for p in result.export_paths]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"devices kept: {fleet.n_kept} (of {fleet.n_devices})")
    for key, value in summary.items():
        print(f"  {key:36s} {value:6.3f}")
    for state, row in transitions.items():
        nexts = "  ".join(f"->{k}:{v:5.1f}%" for k, v in row["next"].items())
        print(f"  {state:9s} {nexts}")
    if result.export_paths:
        print(f"exported {len(result.export_paths)} cohort file(s) to "
              f"{result.export_paths[0].parent}")
    print(f"fabric: {report.summary()}")
    return 0


def cmd_trace_record(args: argparse.Namespace) -> int:
    from .experiments.parallel import repetition_seeds
    from .trace.replay import record_traces, spec_trace_key
    from .trace.store import TraceStore, default_trace_dir

    specs = [
        SessionSpec(
            device=device,
            resolution=args.resolution,
            fps=args.fps,
            pressure=pressure,
            client=args.client,
            duration_s=args.duration,
            seed=seed,
        )
        for device in args.devices.split(",")
        for pressure in args.pressures.split(",")
        for seed in repetition_seeds(args.seed, args.reps)
    ]
    store = TraceStore(args.store or default_trace_dir())
    journal: Optional[SweepJournal] = None
    if args.journal:
        journal = SweepJournal(
            args.journal, resume=args.resume,
            magic=TRACE_RECORD_JOURNAL_MAGIC,
        )
    report = FabricReport()
    try:
        record_traces(
            specs, store,
            jobs=resolve_jobs(args.jobs),
            journal=journal,
            report=report,
            cache=False if args.no_cache else None,
        )
    except SweepInterrupted as exc:
        return _interrupted(exc, "recording", "jobs")
    payload = {
        "store": str(store.root),
        "recorded": report.computed,
        "already_recorded": report.cache_hits,
        "keys": [spec_trace_key(spec) for spec in specs],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"recorded {payload['recorded']} trace(s) "
          f"({payload['already_recorded']} already in store) -> {store.root}")
    print(f"fabric: {report.summary()}")
    return 0


def cmd_trace_analyze(args: argparse.Namespace) -> int:
    from .trace.replay import (
        ANALYTICS_JOURNAL_MAGIC,
        TraceAnalytics,
        analyze_store,
    )
    from .trace.store import TraceStore, default_trace_dir

    store = TraceStore(args.store or default_trace_dir())
    keys = args.keys.split(",") if args.keys else None
    journal: Optional[SweepJournal] = None
    if args.journal:
        journal = SweepJournal(
            args.journal, resume=args.resume,
            magic=ANALYTICS_JOURNAL_MAGIC, result_type=TraceAnalytics,
        )
    report = FabricReport()
    try:
        analytics = analyze_store(
            store, keys=keys, jobs=resolve_jobs(args.jobs),
            journal=journal, report=report,
        )
    except SweepInterrupted as exc:
        return _interrupted(exc, "analysis", "traces")
    if args.json:
        print(json.dumps(
            {key: a.canonical() for key, a in analytics.items()}, indent=2
        ))
        return 0
    for key, result in analytics.items():
        busiest, busy_s = (
            result.top_running[0] if result.top_running else ("-", 0.0)
        )
        mmcqd = next(
            (p.count for p in result.preemptions if p.victor == "mmcqd"), 0
        )
        print(f"{key[:16]}  digest {result.digest()[:12]}  "
              f"busiest {busiest} {busy_s:.2f}s  "
              f"mmcqd preemptions {mmcqd}  "
              f"migrations {sum(result.migrations.values())}")
    print(f"analyzed {len(analytics)} trace(s) from {store.root} "
          "(replay only, no re-simulation)")
    print(f"fabric: {report.summary()}")
    return 0


def cmd_trace_ls(args: argparse.Namespace) -> int:
    from .sim.clock import to_seconds
    from .trace.store import TraceStore, default_trace_dir

    store = TraceStore(args.store or default_trace_dir())
    rows = []
    for key, header in store.iter_headers():
        meta = header.meta
        rows.append({
            "key": key,
            "device": meta.get("device", "?"),
            "pressure": meta.get("pressure", "?"),
            "resolution": meta.get("resolution", "?"),
            "fps": meta.get("fps", 0),
            "seed": meta.get("seed", -1),
            "span_s": round(to_seconds(header.end_time - header.start_time), 3),
            "threads": header.length("thread_idx"),
            "transitions": header.length("tr_time"),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['key'][:16]}  {row['device']:8s} "
              f"{row['resolution']:>6}@{row['fps']:<2} "
              f"{row['pressure']:9s} seed {row['seed']:<6} "
              f"{row['span_s']:7.2f}s  {row['threads']:3d} threads  "
              f"{row['transitions']:6d} transitions")
    print(f"{len(rows)} trace(s) in {store.root}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    run = profiled_run(
        args.pressure, device=args.device, duration_s=args.duration,
        seed=args.seed,
    )
    states = run.video_state_times()
    mmcqd = run.mmcqd_preemptions()
    payload = {
        "pressure": args.pressure,
        "drop_rate": round(run.result.drop_rate, 4),
        "crashed": run.result.crashed,
        "video_thread_states_s": {
            state.value: round(value, 3) for state, value in states.items()
        },
        "top_threads": run.top_threads(limit=args.top),
        "mmcqd_preemptions": mmcqd.count if mmcqd else 0,
        "kills": len(run.kill_events),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{args.device} 480p@60 under {args.pressure} pressure")
    for state in (ThreadState.RUNNING, ThreadState.RUNNABLE,
                  ThreadState.RUNNABLE_PREEMPTED, ThreadState.UNINTERRUPTIBLE):
        print(f"  {state.value:22s} {states[state]:7.2f} s")
    print("  busiest threads:")
    for name, seconds in payload["top_threads"]:
        print(f"    {name:24s} {seconds:6.2f} s")
    print(f"  mmcqd preemptions of video threads: {payload['mmcqd_preemptions']}")
    print(f"  processes killed: {payload['kills']}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validate.runner import run_validation

    report = run_validation(
        level=args.level,
        jobs=resolve_jobs(args.jobs),
        update_golden=args.update_golden,
        cache=False if args.no_cache else None,
    )
    if args.json:
        print(json.dumps(report.to_payload(), indent=2))
        return 0 if report.passed else 1
    for name, violations in sorted(report.violations.items()):
        status = "clean" if not violations else f"{len(violations)} violation(s)"
        print(f"invariants {name:8s} {status}")
        for violation in violations:
            print(f"    {violation}")
    for name, problems in sorted(report.golden.items()):
        if report.updated_golden:
            print(f"golden     {name:8s} rewritten")
        elif not problems:
            print(f"golden     {name:8s} match")
        else:
            print(f"golden     {name:8s} DRIFT")
            for problem in problems:
                print(f"    {problem}")
    for oracle in report.oracles:
        verdict = "pass" if oracle.passed else "FAIL"
        print(f"oracle     {oracle.name:24s} {verdict}  ({oracle.detail})")
    print("validation PASSED" if report.passed else "validation FAILED")
    return 0 if report.passed else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import cmd_lint as run

    return run(args)


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import SCENARIOS, run_chaos

    names = args.scenarios.split(",") if args.scenarios else list(SCENARIOS)
    outcomes = run_chaos(
        scenarios=[name.strip() for name in names if name.strip()],
        jobs=args.jobs,
        seed=args.seed,
        duration_s=args.duration,
    )
    all_passed = all(outcome.passed for outcome in outcomes)
    if args.json:
        payload = {
            "passed": all_passed,
            "scenarios": [outcome.to_payload() for outcome in outcomes],
        }
        print(json.dumps(payload, indent=2))
        return 0 if all_passed else 1
    for outcome in outcomes:
        verdict = "pass" if outcome.passed else "FAIL"
        print(f"chaos {outcome.name:10s} {verdict}  {outcome.detail}")
    print("chaos suite PASSED" if all_passed else "chaos suite FAILED")
    return 0 if all_passed else 1


def cmd_fsck(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .storage import default_roots, scrub

    if args.root:
        roots = [Path(root) for root in args.root]
        missing = [root for root in roots if not root.is_dir()]
        if missing:
            names = ", ".join(str(root) for root in missing)
            print(f"fsck: no such store root: {names}", file=sys.stderr)
            return 2
    else:
        roots = default_roots()
    report = scrub(roots, repair=args.repair)
    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return report.exit_code


def cmd_arena(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .arena import (
        ArenaConfig,
        arena_jobs,
        default_arena_cache_dir,
        make_arena_journal,
        render_table,
        run_arena,
        write_artifact,
    )
    from .arena.driver import ArenaRecord
    from .experiments.parallel import CACHE_DISABLE_ENV, ResultCache
    import os

    config = ArenaConfig(
        policies=tuple(
            name.strip() for name in args.policies.split(",") if name.strip()
        ) if args.policies else (),
        devices=tuple(
            name.strip() for name in args.devices.split(",") if name.strip()
        ),
        pressures=tuple(
            name.strip() for name in args.pressures.split(",") if name.strip()
        ),
        reps=args.reps,
        duration_s=args.duration,
        resolution=args.resolution,
        fps=args.fps,
        base_seed=args.seed,
    )
    try:
        grid = arena_jobs(config)
    except (KeyError, ValueError) as exc:
        print(f"arena: {exc}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache and not os.environ.get(CACHE_DISABLE_ENV):
        cache = ResultCache(default_arena_cache_dir(), result_type=ArenaRecord)
    journal = None
    if not args.no_journal:
        path = Path(args.journal) if args.journal else None
        journal = make_arena_journal(grid, path=path, resume=args.resume)
    report = FabricReport()
    try:
        result = run_arena(
            config,
            jobs=resolve_jobs(args.jobs),
            cache=cache,
            journal=journal,
            report=report,
        )
    except SweepInterrupted as exc:
        return _interrupted(exc, "arena", "sessions")
    paths = None
    if args.out:
        paths = write_artifact(result.leaderboard, Path(args.out))
    if args.json:
        print(json.dumps(result.leaderboard, sort_keys=True, indent=2))
        return 0
    print(render_table(result.leaderboard), end="")
    if paths is not None:
        print(f"artifact: {paths[0]}")
    print(f"fabric: {report.summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Coal Not Diamonds' (CoNEXT '22)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one streaming session")
    run_p.add_argument("--device", default="nexus5",
                       choices=sorted(DEVICE_FACTORIES))
    run_p.add_argument("--resolution", default="480p",
                       choices=RESOLUTION_ORDER)
    run_p.add_argument("--fps", type=int, default=30,
                       choices=SUPPORTED_FRAME_RATES)
    run_p.add_argument("--pressure", default="normal",
                       choices=["normal", "moderate", "low", "critical"])
    run_p.add_argument("--client", default=None,
                       choices=["firefox", "chrome", "exoplayer"])
    run_p.add_argument("--duration", type=float, default=30.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--organic-apps", type=int, default=0)
    run_p.add_argument("--memory-aware-abr", action="store_true")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (0 = all cores); a single "
                            "session always runs in one process")
    run_p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk session result cache")
    run_p.add_argument("--record-trace", default=None, metavar="DIR",
                       help="run traced and persist the columnar trace "
                            "into the store at DIR (see docs/tracing.md)")
    run_p.add_argument("--json", action="store_true")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="drop-rate grid across cells")
    sweep_p.add_argument("--devices", default="nokia1,nexus5,nexus6p")
    sweep_p.add_argument("--resolutions", default="480p,1080p")
    sweep_p.add_argument("--fps", type=int, nargs="+", default=[30, 60])
    sweep_p.add_argument("--pressures", default="normal,moderate,critical")
    sweep_p.add_argument("--duration", type=float, default=20.0)
    sweep_p.add_argument("--reps", type=int, default=2)
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="fan (cell x repetition) jobs over N worker "
                              "processes (0 = all cores)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk session result cache")
    sweep_p.add_argument("--resume", action="store_true",
                         help="resume an interrupted sweep from its "
                              "checkpoint journal (completed jobs replay "
                              "bit-identically instead of re-running)")
    sweep_p.add_argument("--journal", default=None,
                         help="checkpoint journal path (default: derived "
                              "from the sweep's spec digests under the "
                              "cache directory)")
    sweep_p.add_argument("--no-journal", action="store_true",
                         help="disable checkpointing for this sweep")
    sweep_p.add_argument("--record-trace", default=None, metavar="DIR",
                         help="run every job traced and persist the "
                              "columnar traces into the store at DIR")
    sweep_p.add_argument("--json", action="store_true")
    sweep_p.set_defaults(func=cmd_sweep)

    study_p = sub.add_parser("study", help="run the §3 population study")
    study_p.add_argument("--scale", type=float, default=0.15)
    study_p.add_argument("--seed", type=int, default=3)
    study_p.add_argument("--jobs", type=int, default=1,
                         help="simulate cohorts on N worker processes "
                              "(0 = all cores)")
    study_p.add_argument("--devices", type=int, default=80,
                         help="population size (default: the paper's 80 "
                              "users)")
    study_p.add_argument("--cohort-size", type=int, default=0,
                         help="devices per cohort shard (0 = auto-sized "
                              "from the observation length)")
    study_p.add_argument("--resume", action="store_true",
                         help="resume an interrupted fleet run from its "
                              "checkpoint journal")
    study_p.add_argument("--journal", default=None,
                         help="cohort checkpoint journal path (default: "
                              "derived from the fleet config under the "
                              "cache directory)")
    study_p.add_argument("--no-journal", action="store_true",
                         help="disable cohort checkpointing")
    study_p.add_argument("--export", default=None, metavar="DIR",
                         help="stream per-cohort columnar npz logs to DIR "
                              "as shards complete (memory stays bounded)")
    study_p.add_argument("--json", action="store_true")
    study_p.set_defaults(func=cmd_study)

    trace_p = sub.add_parser(
        "trace",
        help="profile a session (§5), or record/replay stored traces",
    )
    trace_p.add_argument("--device", default="nokia1",
                         choices=sorted(DEVICE_FACTORIES))
    trace_p.add_argument("--pressure", default="moderate",
                         choices=["normal", "moderate", "low", "critical"])
    trace_p.add_argument("--duration", type=float, default=25.0)
    trace_p.add_argument("--seed", type=int, default=11)
    trace_p.add_argument("--top", type=int, default=8)
    trace_p.add_argument("--json", action="store_true")
    trace_p.set_defaults(func=cmd_trace)

    trace_sub = trace_p.add_subparsers(
        dest="trace_command",
        metavar="{record,analyze,ls}",
        help="trace store verbs (omit for the legacy live profile)",
    )
    record_p = trace_sub.add_parser(
        "record", help="run sessions once, persisting columnar traces"
    )
    record_p.add_argument("--devices", default="nexus5",
                          help="comma-separated device list")
    record_p.add_argument("--pressures", default="moderate",
                          help="comma-separated pressure list")
    record_p.add_argument("--resolution", default="480p",
                          choices=RESOLUTION_ORDER)
    record_p.add_argument("--fps", type=int, default=30,
                          choices=SUPPORTED_FRAME_RATES)
    record_p.add_argument("--client", default=None,
                          choices=["firefox", "chrome", "exoplayer"])
    record_p.add_argument("--duration", type=float, default=20.0)
    record_p.add_argument("--seed", type=int, default=11,
                          help="base seed (repetitions stride from it)")
    record_p.add_argument("--reps", type=int, default=1)
    record_p.add_argument("--jobs", type=int, default=1,
                          help="record on N worker processes (0 = all cores)")
    record_p.add_argument("--store", default=None, metavar="DIR",
                          help="trace store root (default: "
                               "$REPRO_TRACE_DIR, else the cache "
                               "directory's traces/)")
    record_p.add_argument("--journal", default=None,
                          help="checkpoint journal for interrupted "
                               "recording runs")
    record_p.add_argument("--resume", action="store_true")
    record_p.add_argument("--no-cache", action="store_true",
                          help="do not land session results in the "
                               "result cache while recording")
    record_p.add_argument("--json", action="store_true")
    record_p.set_defaults(func=cmd_trace_record)

    analyze_p = trace_sub.add_parser(
        "analyze",
        help="replay §5 analytics over stored traces (no re-simulation)",
    )
    analyze_p.add_argument("--store", default=None, metavar="DIR")
    analyze_p.add_argument("--keys", default=None,
                           help="comma-separated trace keys (default: all)")
    analyze_p.add_argument("--jobs", type=int, default=1,
                           help="one trace per job over N workers "
                                "(0 = all cores)")
    analyze_p.add_argument("--journal", default=None,
                           help="checkpoint journal for resumable "
                                "analytics over large stores")
    analyze_p.add_argument("--resume", action="store_true")
    analyze_p.add_argument("--json", action="store_true")
    analyze_p.set_defaults(func=cmd_trace_analyze)

    ls_p = trace_sub.add_parser("ls", help="list stored traces")
    ls_p.add_argument("--store", default=None, metavar="DIR")
    ls_p.add_argument("--json", action="store_true")
    ls_p.set_defaults(func=cmd_trace_ls)

    validate_p = sub.add_parser(
        "validate",
        help="invariant checks, golden traces, metamorphic oracles",
    )
    validate_p.add_argument("--level", default="basic",
                            choices=["basic", "deep"],
                            help="deep runs more oracle repetitions")
    validate_p.add_argument("--jobs", type=int, default=1,
                            help="fan oracle sessions over N worker "
                                 "processes (0 = all cores)")
    validate_p.add_argument("--update-golden", action="store_true",
                            help="rewrite tests/golden/ digests instead of "
                                 "comparing against them")
    validate_p.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk session result cache")
    validate_p.add_argument("--json", action="store_true")
    validate_p.set_defaults(func=cmd_validate)

    lint_p = sub.add_parser(
        "lint",
        help="static determinism & contract checks (see "
             "docs/static-analysis.md)",
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint_p)
    lint_p.set_defaults(func=cmd_lint)

    chaos_p = sub.add_parser(
        "chaos",
        help="fault-injection scenarios proving fabric resilience "
             "(see docs/robustness.md)",
    )
    chaos_p.add_argument("--scenarios", default=None,
                         help="comma-separated subset of "
                              "kill,stall,error,corrupt,interrupt,"
                              "storage-torn,storage-crash,storage-bitrot,"
                              "storage-enospc,storage-readonly "
                              "(default: all)")
    chaos_p.add_argument("--jobs", type=int, default=2,
                         help="worker processes for the faulted runs "
                              "(min 2; the baseline is always serial)")
    chaos_p.add_argument("--seed", type=int, default=7,
                         help="scenario seed (fault target selection)")
    chaos_p.add_argument("--duration", type=float, default=4.0,
                         help="simulated seconds per session job")
    chaos_p.add_argument("--json", action="store_true")
    chaos_p.set_defaults(func=cmd_chaos)

    fsck_p = sub.add_parser(
        "fsck",
        help="scrub the on-disk stores: checksums, schema versions, "
             "orphaned tmp files, quarantine (see docs/robustness.md)",
    )
    fsck_p.add_argument("--root", action="append", default=None,
                        metavar="DIR",
                        help="store root to scrub (repeatable; default: "
                             "the result cache and trace store)")
    fsck_p.add_argument("--repair", action="store_true",
                        help="prune orphaned tmp files and leftover "
                             ".env.json sidecars, and move every "
                             "artifact that fails verification into "
                             "its store's quarantine")
    fsck_p.add_argument("--json", action="store_true")
    fsck_p.set_defaults(func=cmd_fsck)

    arena_p = sub.add_parser(
        "arena",
        help="ABR policy competition scored by QoE objectives "
             "(see docs/arena.md)",
    )
    arena_p.add_argument("--policies", default=None,
                         help="comma-separated registered policy names "
                              "(default: all registered entrants)")
    arena_p.add_argument("--devices", default="nokia1,nexus5,nexus6p")
    arena_p.add_argument("--pressures", default="normal,moderate,critical")
    arena_p.add_argument("--reps", type=int, default=3)
    arena_p.add_argument("--duration", type=float, default=30.0)
    arena_p.add_argument("--resolution", default="480p",
                         choices=RESOLUTION_ORDER)
    arena_p.add_argument("--fps", type=int, default=60,
                         choices=SUPPORTED_FRAME_RATES)
    arena_p.add_argument("--seed", type=int, default=31,
                         help="base seed of the per-rep schedule "
                              "(rep seeds are base + rep * 101, the "
                              "legacy memory_aware_comparison schedule)")
    arena_p.add_argument("--jobs", type=int, default=1,
                         help="fan arena sessions over N worker "
                              "processes (0 = all cores)")
    arena_p.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk arena record cache")
    arena_p.add_argument("--resume", action="store_true",
                         help="resume an interrupted arena run from its "
                              "checkpoint journal (completed sessions "
                              "replay bit-identically)")
    arena_p.add_argument("--journal", default=None,
                         help="checkpoint journal path (default: derived "
                              "from the run's job digests under the cache "
                              "directory)")
    arena_p.add_argument("--no-journal", action="store_true",
                         help="disable checkpointing for this run")
    arena_p.add_argument("--out", default=None, metavar="DIR",
                         help="write the leaderboard artifact "
                              "(content-addressed JSON + rendered table) "
                              "into DIR")
    arena_p.add_argument("--json", action="store_true")
    arena_p.set_defaults(func=cmd_arena)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
