"""Smoke-size self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` at ``--size smoke`` (a few
seconds of simulated time per session), either as the command
``BENCHMARK.json`` declares or in-process where a fault is injected.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_RUNS: Dict[Tuple[str, int, int], Tuple[Dict[str, Any], Dict[str, Any]]] = {}


def bench(workload: str, seed: int, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(last stdout line, full report) of one smoke run, cached per
    (workload, seed, trace) for the whole module."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--size", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report_path = ROOT / ".perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
        _RUNS[key] = result, json.loads(report_path.read_text(encoding="utf-8"))
    return _RUNS[key]


def declared(section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload: str) -> None:
    result, report = bench(workload, 5, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    named = report["named_metrics"]
    assert named["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert all(m["unit"] for m in named.values())
    assert report["quarantined"] == 0
    assert report["provenance"]["store_filesystem"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_layers_sum_within_traced_wall(workload: str) -> None:
    result, report = bench(workload, 5, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    layer_self = [v for k, v in metrics.items()
                  if k.endswith(".self_s") and k[: -len(".self_s")] in LAYERS]
    assert all(v >= 0 for v in layer_self)
    assert sum(layer_self) <= metrics["traced_wall_s"]
    assert abs(sum(layer_self) - metrics["layer_self_sum_s"]) < 1e-6
    assert metrics["storage.quarantined"] == 0
    assert report["digest"] == report["untraced_digest"]


def test_digests_and_counts_repeat_across_runs_and_modes() -> None:
    _, traced_a = bench("sweep", 5, 1)
    _, traced_b = _rerun("sweep", 5)
    _, untraced = bench("sweep", 5, 0)
    assert traced_a["digest"] == untraced["digest"] == traced_b["digest"]
    counts_a = {k: v["value"] for k, v in traced_a["metrics"].items()
                if v["unit"] in ("count", "bytes", "ratio")}
    counts_b = {k: v["value"] for k, v in traced_b["metrics"].items()
                if v["unit"] in ("count", "bytes", "ratio")}
    assert counts_a == counts_b
    assert counts_a["sim.events"] > 0 and counts_a["sched.calls"] > 0


def _rerun(workload: str, seed: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """A second traced run of the same inputs (not served from the cache)."""
    first = _RUNS.pop((workload, seed, 1), None)
    try:
        return bench(workload, seed, 1)
    finally:
        if first is not None:
            _RUNS[(workload, seed, 1)] = first


def test_injected_output_mismatch_makes_failed_frac_nonzero(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    from perfbench import run
    from repro.experiments.parallel import ResultCache

    original_get = ResultCache.get

    def tampered(cache: ResultCache, key: str) -> Any:
        hit = original_get(cache, key)
        if hit is None:
            return None
        return dataclasses.replace(hit, frames_rendered=hit.frames_rendered + 1)

    monkeypatch.setattr(ResultCache, "get", tampered)
    report = run.untraced("sweep", 5, 0.1, "smoke", tmp_path)
    check = report["check"]
    assert check.failed > 0 and check.failed <= check.attempted
    assert report["named_metrics"]["failed_frac"][0] > 0
    assert "warm results differ" in check.reason
