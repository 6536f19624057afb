"""The production lint driver: SARIF output."""

import json
from pathlib import Path

from repro.analysis.cli import main, run_lint
from repro.analysis.reporters import render_sarif

FIXTURES = Path(__file__).parent / "fixtures"
TARGET = FIXTURES / "repro"


def lint():
    return run_lint([TARGET], root=FIXTURES)


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
    assert len(run["results"]) == len(result.findings)
    for entry in run["results"]:
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        assert entry["partialFingerprints"]["reproLintFingerprint/v1"]
    json.dumps(sarif)  # must be serializable as-is


def test_sarif_cli_writes_file(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    out = tmp_path / "lint.sarif"
    assert main(["repro/kernel/bad_random.py", "--sarif", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert any(
        r["ruleId"] == "REP102" for r in doc["runs"][0]["results"]
    )
