"""The ``repro arena`` CLI: smoke, artifacts, interrupts, bad input."""

import json

import pytest

from repro import cli
from repro.arena import ArenaConfig, arena_job_key, arena_jobs
from repro.faults.injector import Fault, installed_plan

SMOKE = [
    "arena",
    "--policies", "pressure,hybrid",
    "--devices", "nokia1",
    "--pressures", "moderate",
    "--reps", "1",
    "--duration", "4",
    "--no-cache",
]

SMOKE_CONFIG = ArenaConfig(
    policies=("pressure", "hybrid"),
    devices=("nokia1",),
    pressures=("moderate",),
    reps=1,
    duration_s=4.0,
)


def run_cli(argv, tmp_path, extra=()):
    return cli.main(
        [*argv, "--journal", str(tmp_path / "arena.journal"), *extra]
    )


def test_arena_smoke_prints_table_and_summary(tmp_path, capsys):
    assert run_cli(SMOKE, tmp_path) == 0
    out = capsys.readouterr().out
    assert "pressure" in out and "hybrid" in out
    assert "digest:" in out
    assert "fabric:" in out


def test_arena_json_emits_the_leaderboard_payload(tmp_path, capsys):
    assert run_cli(SMOKE, tmp_path, ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "arena-leaderboard"
    assert {row["policy"] for row in payload["standings"]} == {
        "pressure", "hybrid",
    }
    assert payload["digest"]


def test_arena_out_writes_digest_named_artifact(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert run_cli(SMOKE, tmp_path, ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    # Exactly the JSON and its rendered table: no sidecars, no debris.
    json_file, txt_file = sorted(out_dir.iterdir())
    assert txt_file.name == json_file.name[: -len(".json")] + ".txt"
    payload = json.loads(json_file.read_text())
    # The file is named after the payload's own content address.
    assert json_file.name == f"leaderboard-{payload['digest'][:16]}.json"
    # fsck verifies the JSON against that digest (the table is
    # informational).
    assert cli.main(["fsck", "--root", str(out_dir)]) == 0
    assert "1 verified, 1 unenveloped" in capsys.readouterr().out


def test_arena_rejects_unknown_policy(tmp_path, capsys):
    assert cli.main([
        "arena", "--policies", "nope", "--devices", "nokia1",
        "--reps", "1", "--no-cache", "--no-journal",
    ]) == 2
    assert "arena:" in capsys.readouterr().err


def test_arena_interrupt_exits_130_then_resume_completes(tmp_path, capsys):
    grid = arena_jobs(SMOKE_CONFIG)
    fault = Fault(point=f"job:{arena_job_key(grid[1])}", kind="interrupt")
    with installed_plan([fault], tmp_path / "plan"):
        assert run_cli(SMOKE, tmp_path) == 130
    err = capsys.readouterr().err
    assert "arena interrupted: 1/2" in err
    assert "--resume" in err

    assert run_cli(SMOKE, tmp_path, ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "resumed 1" in out
