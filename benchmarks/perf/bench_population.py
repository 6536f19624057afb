"""Population-engine throughput benchmark (devices/second).

Times the §3 fleet pipeline end to end — cohort batch kernels, dwell
debounce, signal emission, sketch reduction, summary merge.  The
export leg runs the same fleet with ``export_dir`` set, so the
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

#: Benchmark scale: short observations keep one cohort's arrays small
#: while still exercising every kernel (AR walks, debounce, signals).
HOURS_SCALE = 0.003
SEED = 3
DEVICES = 10_000
QUICK_DEVICES = 2_000


def _peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / 1024.0  # Linux reports KiB


def _warmup() -> None:
    """Pay one-time costs (module imports, numpy caches, first-call
    allocations) outside the timed region."""
    run_fleet(FleetConfig(n_devices=8, hours_scale=HOURS_SCALE, seed=SEED))


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


def run(quick: bool = False, million: bool = False) -> Dict:
    """Measure fleet devices/sec; return the numbers."""
    _warmup()
    fleet = _fleet_rate(QUICK_DEVICES if quick else DEVICES)
    export = _export_rate(QUICK_DEVICES if quick else DEVICES)
    results: Dict = {
        "hours_scale": HOURS_SCALE,
        "fleet": fleet,
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
