"""Contract rules: topic cross-checks, schema fingerprint, pickle safety."""

from pathlib import Path

from repro.analysis.cli import run_lint
from repro.analysis.project import session_result_fingerprint

FIXTURES = Path(__file__).parent / "fixtures"


def lint(rel_path, rule):
    result = run_lint(
        [FIXTURES / rel_path], root=FIXTURES, use_baseline=False,
        only_rules=[rule],
    )
    return result.findings


def test_orphan_subscription_detected():
    found = lint("contracts/bad_orphan.py", "REP201")
    assert len(found) == 1
    assert "'io.complete'" in found[0].message


def test_topic_near_miss_detected():
    found = lint("contracts/bad_nearmiss.py", "REP202")
    assert len(found) == 1
    assert "'sched.wakeupp'" in found[0].message
    assert "'sched.wakeup'" in found[0].message


def test_emit_gate_on_another_topic_detected():
    found = lint("repro/bus/bad_gate_mismatch.py", "REP202")
    assert len(found) == 1
    assert found[0].line == 10  # reported at the emit, not the gate
    assert "'decode.drop' is gated on 'decode.done'" in found[0].message


def test_emit_gate_on_unemitted_topic_detected():
    found = lint("repro/bus/bad_gate_unknown.py", "REP202")
    messages = sorted(f.message for f in found)
    assert len(found) == 2  # the dead gate, and the emit it switches off
    assert "tests 'decode.dnoe'" in messages[0]
    assert "did you mean 'decode.done'?" in messages[0]
    assert "'decode.done' is gated on 'decode.dnoe'" in messages[1]


def test_emit_gates_on_their_own_topic_are_clean():
    result = run_lint(
        [FIXTURES / "repro/bus/good_gate.py"], root=FIXTURES,
        use_baseline=False,
    )
    assert result.findings == []


def test_dynamic_topics_detected():
    found = lint("contracts/bad_dynamic.py", "REP203")
    assert len(found) == 2


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
    result = run_lint([target], root=tmp_path, use_baseline=False,
                      only_rules=["REP204"])
    assert result.ok


def test_fabric_pickle_hazards_detected():
    found = lint("contracts/bad_pickle.py", "REP205")
    kinds = sorted(f.message.split(" passed")[0].split(" as ")[0]
                   for f in found)
    assert len(found) == 3  # nested def + lambda to submit, lambda abr=
    assert any("lambda" in k for k in kinds)
    assert any("local_session" in k for k in kinds)
