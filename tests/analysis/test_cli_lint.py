"""The `repro lint` CLI: exit codes, JSON output, --changed."""

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
    assert main(["repro/kernel/bad_random.py"]) == 1


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
    for rule_id in ("REP101", "REP204", "REP301"):
        assert rule_id in out


def test_rules_filter(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    # bad_random violates REP102 only; filtering to REP101 passes it.
    assert main(["repro/kernel/bad_random.py", "--rules", "REP101"]) == 0


def test_json_output(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    assert main(["repro/kernel/bad_random.py", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["summary"]["new"] == len(payload["findings"])


# ----------------------------------------------------------------------
# --changed: report only the files git says were touched
# ----------------------------------------------------------------------

#: Two fixtures with findings of their own, copied into a temporary tree.
CHANGED_FIXTURES = ("repro/kernel/bad_random.py", "repro/kernel/bad_hash.py")


def _fixture_tree(root, monkeypatch):
    """Copy the two fixtures under ``root``, isolated from any enclosing
    repository and from the caller's git environment (a pre-commit hook
    exports ``GIT_INDEX_FILE`` and friends)."""
    for name in [k for k in os.environ if k.startswith("GIT_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(root.parent))
    for rel in CHANGED_FIXTURES:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes((FIXTURES / rel).read_bytes())
    monkeypatch.chdir(root)


def _reported(capsys, *args):
    assert main(["repro", "--json", *args]) == 1
    payload = json.loads(capsys.readouterr().out)
    return {finding["path"] for finding in payload["findings"]}


def test_changed_reports_only_the_touched_file(monkeypatch, tmp_path, capsys):
    root = tmp_path / "tree"
    _fixture_tree(root, monkeypatch)
    git = ["git", "-c", "user.name=lint", "-c", "user.email=lint@example.com",
           "-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "x"]):
        subprocess.run(git + command, cwd=root, check=True,
                       capture_output=True)
    assert _reported(capsys) == set(CHANGED_FIXTURES)

    touched = root / CHANGED_FIXTURES[1]
    touched.write_text(touched.read_text() + "# touched\n")
    assert _reported(capsys, "--changed") == {CHANGED_FIXTURES[1]}


def test_changed_outside_a_git_repo_reports_everything(
    monkeypatch, tmp_path, capsys
):
    root = tmp_path / "tree"
    _fixture_tree(root, monkeypatch)
    assert _reported(capsys, "--changed") == set(CHANGED_FIXTURES)
