"""Contract rules: schema fingerprint, pickle safety."""

from pathlib import Path

from repro.analysis.cli import run_lint
from repro.analysis.project import session_result_fingerprint

FIXTURES = Path(__file__).parent / "fixtures"


def lint(rel_path, rule):
    result = run_lint(
        [FIXTURES / rel_path], root=FIXTURES, only_rules=[rule],
    )
    return result.findings


def test_schema_fingerprint_missing():
    found = lint("contracts/bad_schema_missing.py", "REP204")
    assert len(found) == 1
    expected = session_result_fingerprint([
        ("device_name", "str"),
        ("frames_rendered", "int"),
        ("crashed", "bool"),
    ])
    assert expected in found[0].message  # tells you the value to record


def test_schema_fingerprint_stale():
    found = lint("contracts/bad_schema_stale.py", "REP204")
    assert len(found) == 1
    assert "stale" in found[0].message


def test_schema_fingerprint_correct_is_clean(tmp_path):
    fingerprint = session_result_fingerprint([("device_name", "str")])
    target = tmp_path / "cache.py"
    target.write_text(
        "from dataclasses import dataclass\n"
        "SCHEMA_VERSION = 1\n"
        f'SCHEMA_FINGERPRINT = "{fingerprint}"\n'
        "@dataclass\n"
        "class SessionResult:\n"
        "    device_name: str\n",
        encoding="utf-8",
    )
    result = run_lint([target], root=tmp_path, only_rules=["REP204"])
    assert result.ok


def test_fabric_pickle_hazards_detected():
    found = lint("contracts/bad_pickle.py", "REP205")
    kinds = sorted(f.message.split(" passed")[0].split(" as ")[0]
                   for f in found)
    assert len(found) == 3  # nested def + lambda to submit, lambda abr=
    assert any("lambda" in k for k in kinds)
    assert any("local_session" in k for k in kinds)
