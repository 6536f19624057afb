"""The repository benchmark: one command, four workloads, two modes.

    python3 perfbench/run.py --workload {sweep,trace,arena,fleet} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the workload's
end-to-end metrics with nothing instrumented; ``--trace 1`` runs a
fixed-size plan of the same workload twice, untraced and then with the
outside-in span wrappers of :mod:`perfbench.tracer` installed, and
reports per-layer metrics plus the tracing overhead.  The metric names
and units printed on the last line are the ones ``BENCHMARK.json``
declares.  ``perfbench/README.md`` documents every metric.

All load comes from this one process with ``jobs=1``; scratch stores
live under ``.perfbench/work/`` and are removed at exit, reports land in
``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Warm samples per untraced run: the p90 then has at least ten
#: samples beyond it.
MIN_WARM = 100
#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 3
#: A run stops sampling at this many seconds however slow the program
#: has become, so that it always exits well inside its time limit.
HARD_STOP_S = 120.0


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def provenance(work: Path) -> Dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "store_filesystem": fs_type(work),
        "pool_dispatch": (
            "unmeasured: every workload runs jobs=1 in one process, so "
            "pickling, pool round-trips and parallel_speedup are not "
            f"timed ({usable} usable cores here)"
        ),
    }


def measure_setup(name: str, work: Path) -> Tuple[List[float], List[float]]:
    """(raw, normalised) seconds of whole probe processes: interpreter
    start, imports, one warm-up call.  The host speed for a probe is the
    kernel timed just before and just after it."""
    from perfbench.gauge import REFERENCE_S, Meter

    gauge = Meter()
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    raw, normalised = [], []
    for index in range(SETUP_PROBES):
        target = work / f"probe{index}"
        before = statistics.median(gauge.time_kernel() for _ in range(5))
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(probe), name, str(target)],
            check=True, stdout=subprocess.DEVNULL,
        )
        took = time.perf_counter() - t0
        after = statistics.median(gauge.time_kernel() for _ in range(5))
        raw.append(took)
        normalised.append(took * REFERENCE_S / statistics.median([before, after]))
        shutil.rmtree(target, ignore_errors=True)
    return raw, normalised


def _attempt(workload: Any, ops: int, call: Any, *args: Any) -> bool:
    """Run one phase; an exception fails its ``ops`` and returns False."""
    try:
        call(*args)
        return True
    except Exception:
        traceback.print_exc()
        workload.check.count(ops, False, "operation raised")
        return False


def untraced(name: str, seed: int, seconds: float, size: str, work: Path) -> Dict[str, Any]:
    from perfbench.gauge import Meter
    from perfbench.workloads import WORKLOADS, warm_up

    setup_raw, setup = measure_setup(name, work)
    warm_up(name, work / "warmup")
    workload = WORKLOADS[name](seed, size)
    meter = Meter()
    clock = meter.clock
    start = clock()
    cold: List[int] = []
    warm: List[int] = []
    # Cold phases and blocks of warm operations alternate, so that both
    # samples spread over the whole run instead of one stretch of
    # whatever else the host is doing.
    reps = workload.cold_reps
    for rep in range(reps):
        op = meter.op()
        began = clock()
        if not _attempt(workload, workload.cold_ops, workload.cold, work / f"cold{rep}", meter):
            break
        cold.append(op)
        if rep == 0:
            # Whatever the cold phases leave of the run is shared
            # evenly by the warm blocks.
            block_s = max(0.0, seconds - (clock() - began) * reps) / reps
        last = rep == reps - 1
        block_end = clock() + block_s
        while clock() - start < HARD_STOP_S:
            whole = len(warm) % workload.warm_cycle == 0
            if whole and clock() >= block_end and not (last and len(warm) < MIN_WARM):
                break
            op = meter.op()
            if not _attempt(workload, workload.warm_ops, workload.warm, meter):
                break
            warm.append(op)
    cold_s = [meter.normalised(op) for op in cold]
    warm_s = [meter.normalised(op) for op in warm]
    nan = float("nan")
    cold_med = meter.median_of(cold, workload.normalise_cold) if cold else nan
    p50_ms = statistics.median(warm_s) * 1e3 if warm_s else nan
    p90_ms = statistics.quantiles(warm_s, n=10)[8] * 1e3 if len(warm_s) > 1 else nan
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (cold_med, "s"),
        "warm_p50_ms": (p50_ms, "ms"),
        "warm_p90_ms": (p90_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    check = workload.check
    named = dict(workload.named_metrics(cold_med, p50_ms, p90_ms))
    named.update({
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": (check.failed / max(1, check.attempted), "ratio"),
    })
    warm_raw = [meter.raw(op) for op in warm]
    return {
        "metrics": metrics,
        "named_metrics": named,
        "samples": {
            "setup_s": setup, "setup_raw_s": setup_raw,
            "cold_s": cold_s, "cold_raw_s": [meter.raw(op) for op in cold],
            "warm_count": len(warm),
            "warm_raw_p50_ms": statistics.median(warm_raw) * 1e3 if warm_raw else nan,
            "host_speed": meter.host_speed(),
        },
        "digest": workload.digest,
        "quarantined": workload.quarantined,
        "check": check,
    }


def run_plan(workload: Any, work: Path, log: Any = None) -> float:
    """The fixed-size plan: one cold phase and ``traced_warm_ops`` warm
    calls.  Returns its wall time; with ``log`` each step is a span."""
    from perfbench.gauge import Meter

    def phase(label: str) -> Any:
        return log.phase(f"bench:{workload.name}.{label}") if log else nullcontext()

    meter = Meter(calibrate=False)
    start = meter.clock()
    meter.op()
    with phase("cold"):
        done = _attempt(workload, workload.cold_ops, workload.cold, work, meter)
    for _ in range(workload.traced_warm_ops if done else 0):
        meter.op()
        with phase("warm"):
            if not _attempt(workload, workload.warm_ops, workload.warm, meter):
                break
    return meter.clock() - start


def traced(name: str, seed: int, size: str, work: Path) -> Dict[str, Any]:
    from perfbench import tracer
    from perfbench.workloads import WORKLOADS, warm_up

    warm_up(name, work / "warmup")
    plain = WORKLOADS[name](seed, size)
    untraced_wall = run_plan(plain, work / "untraced")
    workload = WORKLOADS[name](seed, size)
    log = tracer.SpanLog()
    patches = tracer.install(log)
    try:
        traced_wall = run_plan(workload, work / "traced", log)
    finally:
        patches.restore()
    check = workload.check
    check.attempted += plain.check.attempted
    check.failed += plain.check.failed
    check.reason = check.reason or plain.check.reason
    if plain.digest != workload.digest:
        check.count(workload.cold_ops, False, "traced digests differ from untraced")
    layers = tracer.summarize(log, workload.quarantined + plain.quarantined)
    layers.update({
        "traced_wall_s": (traced_wall, "s"),
        "untraced_wall_s": (untraced_wall, "s"),
        "tracing_overhead_s": (traced_wall - untraced_wall, "s"),
        "tracing_overhead_pct": (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
        "spans": (len(log.end), "count"),
    })
    out = ROOT / ".perfbench" / "out"
    log.save(out / f"spans-{name}-seed{seed}.npz")
    return {
        "metrics": layers,
        "digest": workload.digest,
        "untraced_digest": plain.digest,
        "quarantined": workload.quarantined + plain.quarantined,
        "check": check,
    }


def declared(trace: bool) -> Dict[str, str]:
    """Metric names and units ``BENCHMARK.json`` declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "trace", "arena", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    wanted = declared(bool(args.trace))

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            report = traced(args.workload, args.seed, args.size, work)
        else:
            report = untraced(args.workload, args.seed, args.seconds, args.size, work)
        report["provenance"] = provenance(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check = report.pop("check")
    failed_ok = check.failed == 0 and report["quarantined"] == 0
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "attempted": check.attempted, "failed": check.failed,
        "failed_frac": check.failed / max(1, check.attempted),
        "failure": check.reason,
    })
    metrics = report["metrics"]
    missing = sorted(n for n, unit in wanted.items()
                     if n not in metrics or metrics[n][1] != unit)
    if missing:
        print(f"perfbench: declared metrics not produced: {missing}", file=sys.stderr)
        return 3

    out = ROOT / ".perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    serial = dict(report)
    serial["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if "named_metrics" in report:
        serial["named_metrics"] = {
            k: {"value": v, "unit": u} for k, (v, u) in report["named_metrics"].items()}
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(serial, indent=2, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")

    shown = report.get("named_metrics", metrics)
    for key in sorted(shown):
        value, unit = shown[key]
        print(f"# {key:<40} {value:>16.6g} {unit}")
    print(f"# digest {json.dumps(report['digest'], sort_keys=True)}")
    print(f"# provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"# report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed_ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": wanted[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
