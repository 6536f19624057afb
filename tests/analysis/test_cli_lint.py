"""The `repro lint` CLI: exit codes, JSON output, baseline update."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


def test_exit_zero_on_clean_target(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert main(["repro/kernel/good_deterministic.py"]) == 0


def test_exit_one_on_findings(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert main(["repro/kernel/bad_random.py", "--no-baseline"]) == 1


def test_exit_two_on_missing_path(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["does/not/exist"]) == 2


def test_exit_two_on_unknown_rule(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    # REP220 was a shipped rule once; a deleted id is unknown too.
    for rule_id in ("REP999", "REP220"):
        assert main(["repro/kernel/bad_random.py", "--rules", rule_id]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro lint: unknown rule '{rule_id}' (known: ")
        assert "REP101" in err[0]


def test_module_entry_point_runs_without_runtime_warning():
    """`python -m repro.analysis.cli` is the pre-commit entry point; the
    package must not import the module before runpy executes it."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.analysis.cli", "--list-rules"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "REP101" in proc.stdout


def test_list_rules(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP101", "REP201", "REP301"):
        assert rule_id in out


def test_rules_filter(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    # bad_random violates REP102 only; filtering to REP101 passes it.
    assert main([
        "repro/kernel/bad_random.py", "--no-baseline", "--rules", "REP101",
    ]) == 0


def test_json_output(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    assert main([
        "repro/kernel/bad_random.py", "--no-baseline", "--json",
    ]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["summary"]["new"] == len(payload["findings"])


def test_update_baseline_then_green(monkeypatch, tmp_path):
    """--update-baseline grandfathers current findings, like
    `repro validate --update-golden` re-records digests."""
    monkeypatch.chdir(FIXTURES)
    baseline = tmp_path / "baseline.json"
    bad = "repro/kernel/bad_random.py"
    common = ["--baseline", str(baseline)]
    assert main([bad, *common, "--no-baseline"]) == 1
    assert main([bad, *common, "--update-baseline"]) == 0
    assert baseline.exists()
    # Grandfathered now: same findings no longer fail the run.
    assert main([bad, *common]) == 0
    # A new violation on top of the baseline still fails.
    assert main([bad, "repro/kernel/bad_hash.py", *common]) == 1
