"""The ``repro lint`` subcommand: argument wiring and the lint driver.

Kept separate from :mod:`repro.cli` so the analysis package can run
standalone (pre-commit invokes ``python -m repro.analysis.cli`` on the
changed files) and so importing the main CLI never pays for the rule
registry.

The driver has one path: discover and parse the targets once, run every
rule over them (:func:`~repro.analysis.engine.run_rules`), and narrow
the report to git-touched files under ``--changed``.  Every finding it
reports fails the run: a finding is fixed, or suppressed inline with
``# repro: noqa[RULE]`` and its reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set

from ..storage import publish_bytes
from .engine import LintResult, collect_files, run_rules
from .reporters import render_json, render_sarif, render_text
from .rules import build_rules, rule_catalog


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--sarif", type=Path, default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (for GitHub "
             "code scanning); '-' writes it to stdout instead of the "
             "normal report",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files git reports as changed (staged, "
             "unstaged, or untracked) under the given paths",
    )


def changed_files(root: Path) -> Optional[Set[Path]]:
    """Python files git reports as touched, resolved; None when git fails."""
    commands = [
        ["git", "diff", "--name-only", "--diff-filter=d", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    names: Set[str] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command, cwd=root, capture_output=True, text=True,
                timeout=30, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        names.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return {
        (root / name).resolve()
        for name in names
        if name.endswith(".py")
    }


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    only_rules: Optional[Sequence[str]] = None,
    changed_only: bool = False,
) -> LintResult:
    """Library entry point: lint ``paths`` and return the result."""
    resolved_root = root if root is not None else Path.cwd()
    rules = build_rules(only_rules)
    files = collect_files(list(paths), resolved_root)
    findings, suppressed = run_rules(files, rules)

    # --changed narrows what is *reported*, not what is *analyzed*:
    # the project rules over a partial file set would miss the
    # SessionResult shape in an unchanged module and every pickle
    # escape whose payload class lives in an unchanged file.
    touched = changed_files(resolved_root) if changed_only else None
    if touched is not None:
        scope = {src.rel for src in files if src.path.resolve() in touched}
        findings = [f for f in findings if f.path in scope]
        suppressed = [f for f in suppressed if f.path in scope]
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        files_checked=len(files),
        rules_run=[rule.id for rule in rules],
    )


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, cls in rule_catalog().items():
            print(f"{rule_id}  {cls.title}")
        return 0

    raw_paths = args.paths or ["src/repro"]
    paths = [Path(p) for p in raw_paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    only_rules: Optional[List[str]] = None
    if args.rules:
        only_rules = [r for r in args.rules.split(",") if r.strip()]
        try:
            build_rules(only_rules)
        except KeyError as exc:
            print(f"repro lint: {exc.args[0]}", file=sys.stderr)
            return 2

    result = run_lint(paths, only_rules=only_rules, changed_only=args.changed)
    sarif_to_stdout = args.sarif is not None and str(args.sarif) == "-"
    if args.sarif is not None:
        sarif_payload = json.dumps(
            render_sarif(result), indent=2, sort_keys=True
        )
        if sarif_to_stdout:
            print(sarif_payload)
        else:
            publish_bytes(args.sarif, (sarif_payload + "\n").encode("utf-8"))
    if not sarif_to_stdout:
        if args.json:
            print(json.dumps(render_json(result), indent=2, sort_keys=True))
        else:
            for line in render_text(result):
                print(line)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & contract linter for the repro codebase",
    )
    add_lint_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
