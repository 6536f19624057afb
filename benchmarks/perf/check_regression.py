"""CI perf-regression gate on host-normalised numbers.

Measures four numbers on this checkout and judges each against the
newest committed ``BENCH_<date>.json`` at the repository root:

* ``run_loop_ops_per_sec`` — events per second fired through
  ``Simulator.run`` (higher is better);
* ``session_pair_s`` — the canonical Nexus 5 pair, 720p30, 10 s,
  seed 7, moderate then critical pressure (lower is better);
* ``fleet_devices_per_sec`` — the §3 fleet engine on 2,000 devices at
  ``hours_scale`` 0.003 (higher is better);
* ``replay_speedup_x`` — re-simulate-then-analyse over
  load-then-analyse of the canonical pair's traces (higher is better).
  It also has an absolute floor of 5×: a replay path less than 5×
  faster than re-simulation has lost its reason to exist, whatever the
  baseline read.

The hosts these run on are shared, and a core's speed drifts by tens of
percent with its neighbours' load, so raw wall clock judged against a
fixed baseline fails on unchanged code.  Every timing is therefore
rescaled to perfbench's reference speed: perfbench's calibration kernel
(``perfbench/gauge.py``, imported read-only) is timed just before and
just after every repeat, as ``perfbench/run.py`` does for its setup
probes.  The replay speedup is a ratio of two such timings from the same
run; rescaling each side keeps a change of host speed between the two
phases out of the ratio.

A gate fails when its number is worse than the baseline median by more
than :data:`THRESHOLD` (a disabled fast path shows up as 2×, not 25 %),
or when the run or the baseline lacks it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.check_regression
    PYTHONPATH=src python -m benchmarks.perf.check_regression --out BENCH_<date>.json

The first measures once and judges (exit 1 on a regression); the second
measures :data:`RUNS` times, each in a fresh interpreter, and writes the
median and interquartile range of every gated number as a new baseline.
"""

from __future__ import annotations

import argparse
import datetime
import json
import multiprocessing
import os
import platform
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from perfbench.gauge import REFERENCE_S, Meter
from repro.experiments.parallel import SessionSpec, run_spec
from repro.sim.engine import Simulator
from repro.study.cohort import FleetConfig
from repro.study.fleet import run_fleet
from repro.trace.replay import analyze_view, record_session_trace, spec_trace_key
from repro.trace.store import TraceStore

#: The repository root, where the committed snapshots live.
ROOT = Path(__file__).resolve().parents[2]

#: Committed snapshot names: BENCH_<date>.json, then .2, .3, ... for a
#: second snapshot cut on the same day.
BENCH_PATTERN = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})(?:\.(\d+))?\.json$")

#: Allowed fractional regression against the baseline median.
THRESHOLD = 0.25

#: Absolute floor for ``replay_speedup_x`` (see module docstring).
REPLAY_SPEEDUP_FLOOR = 5.0

#: Gated metric -> (unit, which way is better, absolute floor).
GATES: Dict[str, Tuple[str, str, float]] = {
    "run_loop_ops_per_sec": ("ops/s", "higher", 0.0),
    "session_pair_s": ("s", "lower", 0.0),
    "fleet_devices_per_sec": ("devices/s", "higher", 0.0),
    "replay_speedup_x": ("x", "higher", REPLAY_SPEEDUP_FLOOR),
}

#: The canonical Nexus 5 pair every end-to-end claim is judged on.
PAIR_SPECS = tuple(
    SessionSpec("nexus5", "720p", 30, pressure, None, 10.0, 7)
    for pressure in ("moderate", "critical")
)

RUN_LOOP_EVENTS = 200_000
FLEET = FleetConfig(n_devices=2_000, hours_scale=0.003, seed=3)
#: Timed calls per number, after one untimed warm-up call.
REPEATS = 5
#: Kernel timings on each side of a repeat; their median sets its speed.
KERNEL_TIMINGS = 5
#: Fresh-process measurements behind a committed baseline.
RUNS = 10


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------

def _noop() -> None:
    pass


def run_loop() -> None:
    """Fire pre-scheduled no-op events through ``Simulator.run``."""
    sim = Simulator()
    for i in range(RUN_LOOP_EVENTS):
        sim.schedule(i, _noop)
    sim.run()


def session_pair() -> None:
    for spec in PAIR_SPECS:
        run_spec(spec)


def _seconds(gauge: Meter, fn: Callable[[], Any]) -> Tuple[float, float]:
    """(normalised, raw) median seconds of ``fn`` over :data:`REPEATS`
    calls.  Each call's host speed is the kernel timed just before and
    just after it."""
    fn()
    normalised, raw = [], []
    for _ in range(REPEATS):
        before = statistics.median(gauge.time_kernel() for _ in range(KERNEL_TIMINGS))
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        after = statistics.median(gauge.time_kernel() for _ in range(KERNEL_TIMINGS))
        raw.append(took)
        normalised.append(took * REFERENCE_S / statistics.median([before, after]))
    return statistics.median(normalised), statistics.median(raw)


def measure() -> Dict[str, Tuple[float, float]]:
    """Every gated metric as (gated value, raw wall-clock value)."""
    gauge = Meter()
    loop = _seconds(gauge, run_loop)
    pair = _seconds(gauge, session_pair)
    fleet = _seconds(gauge, lambda: run_fleet(FLEET))
    keys = [spec_trace_key(spec) for spec in PAIR_SPECS]
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        for spec, key in zip(PAIR_SPECS, keys):
            store.save(key, record_session_trace(spec)[1])

        def resimulate() -> None:
            for spec in PAIR_SPECS:
                analyze_view(record_session_trace(spec)[1])

        def replay() -> None:
            for key in keys:
                trace = store.load(key)
                assert trace is not None, key
                analyze_view(trace)

        resim = _seconds(gauge, resimulate)
        load = _seconds(gauge, replay)
    return {
        "run_loop_ops_per_sec": (RUN_LOOP_EVENTS / loop[0], RUN_LOOP_EVENTS / loop[1]),
        "session_pair_s": pair,
        "fleet_devices_per_sec": (FLEET.n_devices / fleet[0], FLEET.n_devices / fleet[1]),
        "replay_speedup_x": (resim[0] / load[0], resim[1] / load[1]),
    }


# ----------------------------------------------------------------------
# Judging
# ----------------------------------------------------------------------

def latest_bench(root: Path) -> Optional[Path]:
    """The newest committed snapshot under ``root`` (by date, then
    same-day suffix), or None."""
    candidates = [
        ((match.group(1), int(match.group(2) or 1)), path)
        for path in root.glob("BENCH_*.json")
        if (match := BENCH_PATTERN.match(path.name)) is not None
    ]
    return max(candidates)[1] if candidates else None


def baseline_medians(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """The gated medians a snapshot records; older snapshots, in raw
    wall clock, record none of them."""
    results = snapshot.get("results", {})
    return {
        name: float(results[name]["median"])
        for name in GATES
        if isinstance(results.get(name), dict) and "median" in results[name]
    }


def judge(fresh: Mapping[str, float], baseline: Mapping[str, float]) -> List[str]:
    """Print one line per gate; return the names of the gates failed.

    A gate fails when ``fresh`` lacks its metric, when it has neither a
    baseline nor an absolute floor, or when the fresh value is past its
    bound.
    """
    failures = []
    for name, (unit, better, floor) in GATES.items():
        value, base = fresh.get(name), baseline.get(name)
        if base is None:
            bound = floor or None
        elif better == "higher":
            bound = max(floor, base * (1.0 - THRESHOLD))
        else:
            bound = base * (1.0 + THRESHOLD)
        if value is None:
            verdict = "MISSING from this run"
        elif bound is None:
            verdict = "NO BASELINE"
        elif value >= bound if better == "higher" else value <= bound:
            verdict = "ok"
        else:
            verdict = "REGRESSED"
        kind = "floor" if better == "higher" else "ceiling"
        print(f"{name}: {_show(value)} {unit} vs baseline {_show(base)} "
              f"({kind} {_show(bound)}) -> {verdict}")
        if verdict != "ok":
            failures.append(name)
    return failures


def _show(value: Optional[float]) -> str:
    if value is None:
        return "none"
    return f"{value:,.0f}" if value >= 1000 else f"{value:.4g}"


# ----------------------------------------------------------------------
# Cutting a baseline
# ----------------------------------------------------------------------

def cut(path: Path) -> None:
    """Measure :data:`RUNS` times, each in a fresh interpreter, and write
    the median and IQR of every gated number and of its raw value."""
    context = multiprocessing.get_context("spawn")
    with context.Pool(1, maxtasksperchild=1) as pool:
        runs = pool.starmap(measure, [()] * RUNS, chunksize=1)
    results: Dict[str, Dict[str, float]] = {name: {} for name in GATES}
    for name, entry in results.items():
        for column, prefix in enumerate(("", "raw_")):
            q1, median, q3 = statistics.quantiles([run[name][column] for run in runs], n=4)
            entry[f"{prefix}median"] = float(f"{median:.4g}")
            entry[f"{prefix}iqr"] = float(f"{q3 - q1:.4g}")
    payload = {
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "runs": RUNS,
        "basis": ("timings rescaled to perfbench.gauge's reference speed "
                  "(raw_*: wall clock); replay_speedup_x is a same-run "
                  "ratio of two rescaled timings"),
        "results": results,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.check_regression")
    parser.add_argument("--out", type=Path, default=None,
                        help="cut a baseline snapshot to this path "
                             "instead of judging this checkout")
    args = parser.parse_args(argv)
    if args.out is not None:
        cut(args.out)
        return 0

    baseline_path = latest_bench(ROOT)
    baseline = (
        baseline_medians(json.loads(baseline_path.read_text()))
        if baseline_path is not None else {}
    )
    measured = measure()
    print("raw wall clock: " + ", ".join(
        f"{name} {_show(raw)}" for name, (_, raw) in measured.items()
    ))
    failures = judge({name: value for name, (value, _) in measured.items()},
                     baseline)
    against = baseline_path.name if baseline_path is not None else "no baseline"
    if failures:
        print(f"perf gate FAILED ({', '.join(failures)}) against {against}",
              file=sys.stderr)
        return 1
    print(f"perf gate passed against {against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
