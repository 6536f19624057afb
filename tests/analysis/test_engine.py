"""Engine mechanics: suppressions, fingerprints, reporters, scope."""

import ast
import json
from pathlib import Path

from repro.analysis import (
    ALL_RULE_CLASSES,
    build_rules,
    collect_files,
    rule_catalog,
    run_rules,
)
from repro.analysis.cli import run_lint
from repro.analysis.engine import Finding, ImportMap, scope_key
from repro.analysis.reporters import REPORT_SCHEMA_VERSION, render_json, render_text

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


def lint(*rel_paths, rules=None):
    paths = [FIXTURES / rel for rel in rel_paths]
    return run_lint(paths, root=FIXTURES, only_rules=rules)


# ----------------------------------------------------------------------
# Scope resolution
# ----------------------------------------------------------------------
def test_scope_key():
    assert scope_key("src/repro/kernel/manager.py") == "kernel"
    assert scope_key("repro/sim/engine.py") == "sim"
    assert scope_key("repro/cli.py") == ""
    assert scope_key("tools/script.py") is None


def test_import_map_anchors_relative_imports_at_the_package():
    tree = ast.parse(
        "from .trace import TraceStore\n"
        "from ..experiments.parallel import run_jobs\n"
        "from . import policies as pol\n"
        "import numpy as np\n"
    )
    expected = {
        "TraceStore": "repro.arena.trace.TraceStore",
        "run_jobs": "repro.experiments.parallel.run_jobs",
        "pol": "repro.arena.policies",
        "np": "numpy",
    }
    # A package's __init__ is its own anchor, a submodule's is its
    # parent: both sit in repro.arena, so both resolve alike.
    assert ImportMap(tree, "src/repro/arena/__init__.py").aliases == expected
    assert ImportMap(tree, "src/repro/arena/driver.py").aliases == expected
    # A relative import climbing above the top-level package binds
    # nothing.
    assert ImportMap(ast.parse("from ...x import y"),
                     "repro/arena/driver.py").aliases == {}


def test_benchmarks_out_of_scope():
    result = lint("repro/benchmarks/timing.py")
    assert result.ok  # perf_counter is fine outside the simulation core


def test_syntax_error_reported_as_rep001():
    result = lint("broken/bad_syntax.py")
    assert [f.rule for f in result.findings] == ["REP001"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_repro_noqa_suppressions():
    result = lint("repro/kernel/suppressed.py", rules=["REP102"])
    # scoped[REP102] and bare noqa suppress; noqa[REP101] and plain
    # `# noqa` do not cover a REP102 finding.
    assert len(result.suppressed) == 2
    assert len(result.findings) == 2
    suppressed_lines = {f.line for f in result.suppressed}
    finding_lines = {f.line for f in result.findings}
    assert suppressed_lines.isdisjoint(finding_lines)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_line_number_independent():
    a = Finding(rule="R", severity="error", path="p.py", line=3, col=1,
                message="m")
    b = Finding(rule="R", severity="error", path="p.py", line=300, col=7,
                message="m")
    assert a.fingerprint == b.fingerprint


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_json_reporter_schema():
    result = lint("repro/kernel/bad_random.py")
    payload = render_json(result)
    assert payload["schema"] == REPORT_SCHEMA_VERSION
    assert payload["ok"] is False
    assert set(payload["summary"]) == {
        "new", "suppressed", "files_checked", "rules_run",
    }
    for entry in payload["findings"]:
        assert set(entry) == {
            "rule", "severity", "path", "line", "col", "message",
            "fingerprint",
        }
    json.dumps(payload)  # must be serialisable as-is


def test_text_reporter_lines():
    result = lint("repro/kernel/bad_random.py")
    lines = render_text(result)
    assert any("REP102" in line for line in lines[:-1])
    assert lines[-1].startswith(f"{len(result.findings)} finding(s)")

    clean = lint("repro/kernel/good_deterministic.py")
    assert render_text(clean)[-1].startswith("clean:")


# ----------------------------------------------------------------------
# Rule registry and fixture coverage
# ----------------------------------------------------------------------
def test_rule_catalog_ids_are_unique():
    catalog = rule_catalog()
    assert len(catalog) == len(ALL_RULE_CLASSES)


def test_build_rules_rejects_unknown_id():
    import pytest

    with pytest.raises(KeyError):
        build_rules(["REP999"])


def test_every_shipped_rule_fires_on_the_fixture_tree():
    """Acceptance: a seeded violation exists for every rule we ship."""
    files = collect_files([FIXTURES], FIXTURES)
    findings, _suppressed = run_rules(files, build_rules(None))
    fired = {f.rule for f in findings}
    expected = {cls.id for cls in ALL_RULE_CLASSES} | {"REP001"}
    assert expected <= fired, f"rules without fixtures: {expected - fired}"


def test_src_repro_is_clean():
    """Acceptance: the shipped source tree passes."""
    result = run_lint([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert result.ok, "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in result.findings
    )
