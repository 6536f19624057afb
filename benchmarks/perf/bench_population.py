"""Population-engine throughput benchmark (devices/second).

Times the §3 fleet pipeline end to end — cohort batch kernels, dwell
debounce, signal emission, sketch reduction, summary merge — and, on a
subsample, the legacy per-device generator for an honest side-by-side.

Both paths are numpy-vectorized per device already, so the fleet
engine's win is architectural (2-D batch kernels amortize per-device
dispatch, sketches replace per-second log retention) rather than a
rewrite of interpreted loops; the measured ratio is reported as-is.
The export leg runs the same fleet with ``export_dir`` set, so the
per-cohort npz writer is timed too, and records the bytes it writes
per device.  The optional million-device leg (``--million`` via
``run.py``) proves the O(cohorts) memory bound by recording peak RSS
alongside the throughput.
"""

from __future__ import annotations

import resource
import tempfile
import time
from pathlib import Path
from typing import Dict

from repro.study.cohort import FleetConfig, n_cohorts
from repro.study.fleet import run_fleet
from repro.study.generator import PopulationConfig, generate_population

#: Benchmark scale: short observations keep one cohort's arrays small
#: while still exercising every kernel (AR walks, debounce, signals).
HOURS_SCALE = 0.003
SEED = 3
DEVICES = 10_000
QUICK_DEVICES = 2_000
#: Legacy-path subsample (per-device generation is too slow to run the
#: full population count; the ratio is computed on equal footing).
LEGACY_DEVICES = 200
QUICK_LEGACY = 50


def _peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / 1024.0  # Linux reports KiB


def _warmup() -> None:
    """Pay one-time costs (lazy scipy.signal import, numpy caches)
    outside the timed region, for both paths."""
    run_fleet(FleetConfig(n_devices=8, hours_scale=HOURS_SCALE, seed=SEED))
    generate_population(
        PopulationConfig(n_users=2, hours_scale=HOURS_SCALE, seed=SEED)
    )


def _fleet_rate(devices: int, repeats: int = 3) -> Dict[str, float]:
    config = FleetConfig(
        n_devices=devices, hours_scale=HOURS_SCALE, seed=SEED
    )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_fleet(config)
        best = min(best, time.perf_counter() - start)
        assert result.summary.n_devices == devices
    return {
        "devices": devices,
        "cohorts": n_cohorts(config),
        "seconds": round(best, 3),
        "devices_per_sec": round(devices / best, 1),
    }


def _export_rate(devices: int, repeats: int = 3) -> Dict[str, float]:
    config = FleetConfig(
        n_devices=devices, hours_scale=HOURS_SCALE, seed=SEED
    )
    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            result = run_fleet(config, export_dir=Path(tmp))
            best = min(best, time.perf_counter() - start)
            size = sum(path.stat().st_size for path in result.export_paths)
        assert len(result.export_paths) == n_cohorts(config)
    return {
        "devices": devices,
        "seconds": round(best, 3),
        "devices_per_sec": round(devices / best, 1),
        "bytes_per_device": round(size / devices, 1),
    }


def _legacy_rate(devices: int, repeats: int = 3) -> Dict[str, float]:
    config = PopulationConfig(
        n_users=devices, hours_scale=HOURS_SCALE, seed=SEED
    )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        logs = generate_population(config)
        best = min(best, time.perf_counter() - start)
        assert len(logs) == devices
    return {
        "devices": devices,
        "seconds": round(best, 3),
        "devices_per_sec": round(devices / best, 1),
    }


def run(quick: bool = False, million: bool = False) -> Dict:
    """Measure fleet and legacy devices/sec; return the numbers."""
    _warmup()
    fleet = _fleet_rate(QUICK_DEVICES if quick else DEVICES)
    export = _export_rate(QUICK_DEVICES if quick else DEVICES)
    legacy = _legacy_rate(QUICK_LEGACY if quick else LEGACY_DEVICES)
    results: Dict = {
        "hours_scale": HOURS_SCALE,
        "fleet": fleet,
        "legacy_per_device": legacy,
        "fleet_vs_legacy": round(
            fleet["devices_per_sec"] / legacy["devices_per_sec"], 2
        ),
        "fleet_devices_per_sec": fleet["devices_per_sec"],
        "fleet_export": export,
        "fleet_export_devices_per_sec": export["devices_per_sec"],
        "export_bytes_per_device": export["bytes_per_device"],
    }
    if million:
        config = FleetConfig(
            n_devices=1_000_000, hours_scale=HOURS_SCALE, seed=SEED
        )
        start = time.perf_counter()
        result = run_fleet(config)
        elapsed = time.perf_counter() - start
        assert result.summary.n_devices == 1_000_000
        results["million"] = {
            "devices": 1_000_000,
            "cohorts": n_cohorts(config),
            "seconds": round(elapsed, 1),
            "devices_per_sec": round(1_000_000 / elapsed, 1),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "devices_kept": result.summary.n_kept,
        }
    return results


if __name__ == "__main__":
    for key, value in run().items():
        print(f"{key:20s} {value}")
