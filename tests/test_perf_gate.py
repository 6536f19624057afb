"""The CI perf-regression gate, judged on synthetic snapshots."""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.check_regression import (
    GATES,
    REPLAY_SPEEDUP_FLOOR,
    ROOT,
    THRESHOLD,
    baseline_medians,
    judge,
    latest_bench,
)

BASELINE = {
    "run_loop_ops_per_sec": 1_000_000.0,
    "session_pair_s": 0.2,
    "fleet_devices_per_sec": 5_000.0,
    "replay_speedup_x": 40.0,
}


def bound(name):
    _unit, better, _floor = GATES[name]
    factor = 1.0 - THRESHOLD if better == "higher" else 1.0 + THRESHOLD
    return BASELINE[name] * factor


def nudged(value, better, inside):
    """``value`` moved a hair to the passing (``inside``) or failing side."""
    toward_better = 1.0 + 1e-6 if better == "higher" else 1.0 - 1e-6
    return value * toward_better if inside else value / toward_better


@pytest.mark.parametrize("name", sorted(GATES))
def test_each_gate_passes_just_inside_its_bound(name):
    fresh = dict(BASELINE, **{name: nudged(bound(name), GATES[name][1], True)})
    assert judge(fresh, BASELINE) == []


@pytest.mark.parametrize("name", sorted(GATES))
def test_each_gate_fails_just_past_its_bound(name, capsys):
    fresh = dict(BASELINE, **{name: nudged(bound(name), GATES[name][1], False)})
    assert judge(fresh, BASELINE) == [name]
    assert f"{name}: " in capsys.readouterr().out


@pytest.mark.parametrize("baseline_speedup", [4.0, None])
def test_replay_floor_holds_below_a_lower_baseline_and_without_one(
    baseline_speedup,
):
    baseline = dict(BASELINE)
    del baseline["replay_speedup_x"]
    if baseline_speedup is not None:
        baseline["replay_speedup_x"] = baseline_speedup
    just_under = dict(BASELINE, replay_speedup_x=REPLAY_SPEEDUP_FLOOR * 0.99)
    at_floor = dict(BASELINE, replay_speedup_x=REPLAY_SPEEDUP_FLOOR)
    assert judge(just_under, baseline) == ["replay_speedup_x"]
    assert judge(at_floor, baseline) == []


@pytest.mark.parametrize("name", sorted(GATES))
def test_a_run_missing_a_gated_metric_fails(name, capsys):
    fresh = dict(BASELINE)
    del fresh[name]
    assert judge(fresh, BASELINE) == [name]
    assert "MISSING" in capsys.readouterr().out


def test_a_relative_gate_without_a_baseline_fails():
    baseline = dict(BASELINE)
    del baseline["session_pair_s"]
    assert judge(BASELINE, baseline) == ["session_pair_s"]


def test_baseline_selection_goes_by_date_then_suffix(tmp_path):
    assert latest_bench(tmp_path) is None
    for name in ("BENCH_2026-08-06.9.json", "BENCH_2026-08-08.json",
                 "BENCH_2026-08-08.2.json", "BENCH_2026-08-08.10.json",
                 "BENCH_notes.json"):
        (tmp_path / name).write_text("{}")
    assert latest_bench(tmp_path).name == "BENCH_2026-08-08.10.json"
    (tmp_path / "BENCH_2026-09-01.json").write_text("{}")
    assert latest_bench(tmp_path).name == "BENCH_2026-09-01.json"


def test_newest_committed_baseline_records_every_gate():
    snapshot = json.loads(latest_bench(ROOT).read_text())
    assert baseline_medians(snapshot).keys() == GATES.keys()
    assert snapshot["cores"] >= 1 and snapshot["python"]


def test_a_raw_wall_clock_snapshot_offers_no_baseline():
    old = {"results": {"engine_ops_per_sec": {"run_loop": 789749},
                       "end_to_end_session_pair_s": {"this_pr": 0.24}}}
    assert baseline_medians(old) == {}
