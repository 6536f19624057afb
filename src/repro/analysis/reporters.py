"""Finding reporters: human text, machine JSON, and SARIF.

The JSON schema is stable and versioned (``REPORT_SCHEMA_VERSION``);
``tests/analysis`` locks it, since dashboards and the CI annotation
step consume it.  Version 3 removed the ``files_analyzed``/
``files_cached`` summary keys that version 2 added; version 4 removed
the ``baselined`` list and its summary count, with the lint baseline.

SARIF 2.1.0 output (``repro lint --sarif``) feeds GitHub code
scanning: findings annotate the PR diff at their exact location, and
``partialFingerprints`` carries the finding's stable fingerprint
(line numbers excluded), so an alert tracks a finding across unrelated
edits.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .engine import Finding, LintResult

REPORT_SCHEMA_VERSION = 4

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _finding_payload(finding: Finding) -> Dict[str, Any]:
    return {
        "rule": finding.rule,
        "severity": finding.severity,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "fingerprint": finding.fingerprint,
    }


def render_json(result: LintResult) -> Dict[str, Any]:
    """The machine-readable report (``repro lint --json``)."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "ok": result.ok,
        "findings": [_finding_payload(f) for f in result.findings],
        "suppressed": [_finding_payload(f) for f in result.suppressed],
        "summary": {
            "new": len(result.findings),
            "suppressed": len(result.suppressed),
            "files_checked": result.files_checked,
            "rules_run": list(result.rules_run),
        },
    }


def render_text(result: LintResult) -> List[str]:
    """Human-readable report lines (one finding per line)."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}"
        )
    summary = (
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{result.files_checked} file(s) checked"
    )
    lines.append(summary if result.findings else f"clean: {summary}")
    return lines


def _sarif_result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error" if finding.severity == "error" else "warning",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.col,
                },
            },
        }],
        "partialFingerprints": {"reproLintFingerprint/v1": finding.fingerprint},
    }


def render_sarif(result: LintResult) -> Dict[str, Any]:
    """SARIF 2.1.0 log for GitHub code scanning upload.

    Suppressed findings are omitted — a ``# repro: noqa`` is a
    reviewed policy decision, not an alert.
    """
    from .rules import rule_catalog  # local: keep reporter import light

    catalog = rule_catalog()
    rules_meta = [
        {
            "id": rule_id,
            "name": cls.__name__,
            "shortDescription": {"text": cls.title},
            "fullDescription": {"text": cls.rationale},
            "defaultConfiguration": {
                "level": "error" if cls.severity == "error" else "warning",
            },
        }
        for rule_id, cls in catalog.items()
        if rule_id in set(result.rules_run)
    ]
    rules_meta.append({
        "id": "REP001",
        "name": "SyntaxErrorRule",
        "shortDescription": {"text": "file fails to parse"},
        "fullDescription": {
            "text": "A file the linter cannot parse cannot be analyzed; "
                    "every other guarantee is void until it parses.",
        },
        "defaultConfiguration": {"level": "error"},
    })

    results = [_sarif_result(f) for f in result.findings]

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules_meta,
                },
            },
            "columnKind": "unicodeCodePoints",
            "results": results,
        }],
    }
