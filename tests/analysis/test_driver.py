"""The production lint driver: baseline merge/prune and SARIF output."""

import json
from pathlib import Path

from repro.analysis.baseline import (
    load_baseline,
    update_baseline,
    write_baseline,
)
from repro.analysis.cli import main, run_lint
from repro.analysis.engine import Finding
from repro.analysis.reporters import render_sarif

FIXTURES = Path(__file__).parent / "fixtures"
TARGET = FIXTURES / "repro"


def lint():
    return run_lint([TARGET], root=FIXTURES, use_baseline=False)


# ----------------------------------------------------------------------
# Baseline merge / prune
# ----------------------------------------------------------------------
def _finding(path, message, rule="REP102"):
    return Finding(rule=rule, severity="error", path=path, line=1, col=1,
                   message=message)


def test_update_baseline_keeps_entries_outside_lint_scope(tmp_path):
    baseline = tmp_path / "baseline.json"
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "mod.py").write_text("x = 1\n")
    outside = _finding("other/mod.py", "grandfathered elsewhere")
    write_baseline([outside], baseline)

    current = _finding("linted/mod.py", "fresh debt")
    update = update_baseline(
        [current], baseline, linted_rels={"linted/mod.py"}, root=tmp_path,
    )
    allowed = load_baseline(baseline)
    assert allowed[outside.fingerprint] == 1  # survived a partial lint
    assert allowed[current.fingerprint] == 1
    assert update.kept_outside == 1
    assert not update.shrank


def test_update_baseline_prunes_deleted_files(tmp_path):
    baseline = tmp_path / "baseline.json"
    dead = _finding("gone/mod.py", "debt for deleted code")
    write_baseline([dead], baseline)

    update = update_baseline([], baseline, linted_rels=set(), root=tmp_path)
    assert update.pruned == ["gone/mod.py"]
    assert update.shrank
    assert load_baseline(baseline) == {}


def test_update_baseline_replaces_linted_entries(tmp_path):
    baseline = tmp_path / "baseline.json"
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    old = _finding("pkg/mod.py", "fixed since")
    write_baseline([old], baseline)

    update = update_baseline(
        [], baseline, linted_rels={"pkg/mod.py"}, root=tmp_path,
    )
    assert load_baseline(baseline) == {}
    assert update.old_total == 1 and update.new_total == 0
    assert update.shrank
    assert update.pruned == []  # the file exists; its debt was paid


def test_update_baseline_cli_warns_on_shrink_and_prunes(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    tree = tmp_path / "repro" / "kernel"
    tree.mkdir(parents=True)
    doomed = tree / "doomed.py"
    doomed.write_text("import time\n\ndef f():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"
    common = ["--baseline", str(baseline)]
    assert main(["repro", *common, "--update-baseline"]) == 0
    assert load_baseline(baseline)  # the wall-clock debt is recorded
    capsys.readouterr()

    # The file (and its debt) is deleted: the next update must prune
    # its fingerprints and call out that the baseline shrank.
    doomed.unlink()
    assert main(["repro", *common, "--update-baseline"]) == 0
    err = capsys.readouterr().err
    assert "pruned" in err and "doomed.py" in err
    assert "shrank" in err
    assert load_baseline(baseline) == {}


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_report_shape():
    result = lint()
    sarif = render_sarif(result)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "REP001" in rule_ids
    assert {r["ruleId"] for r in run["results"]} <= rule_ids
    assert len(run["results"]) == len(result.findings) + len(result.baselined)
    for entry in run["results"]:
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        assert entry["partialFingerprints"]["reproLintFingerprint/v1"]
    json.dumps(sarif)  # must be serializable as-is


def test_sarif_cli_writes_file(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    out = tmp_path / "lint.sarif"
    assert main([
        "repro/kernel/bad_random.py", "--no-baseline", "--sarif", str(out),
    ]) == 1
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert any(
        r["ruleId"] == "REP102" for r in doc["runs"][0]["results"]
    )
