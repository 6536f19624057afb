"""The lint rule engine: file model, rule dispatch, suppressions.

The runtime validation subsystem (:mod:`repro.validate`) catches an
invariant *after* it breaks; this package stops whole classes of breakage
from being written at all.  The engine is deliberately small:

* a :class:`SourceFile` is parsed once (AST + raw lines + suppression
  comments) and handed to every applicable rule;
* a :class:`Rule` inspects one file at a time; a :class:`ProjectRule`
  additionally sees a :class:`~repro.analysis.project.ProjectIndex`
  built over the whole lint target (for cross-file contracts such as
  emit/subscribe topic agreement);
* findings are plain data (:class:`Finding`) with a stable fingerprint,
  which is what the baseline mechanism keys on.

Suppressions are explicit and auditable: a line carrying
``# repro: noqa[RULE1,RULE2]`` (or a bare ``# repro: noqa``) silences
findings reported *on that line*.  Plain ``# noqa`` is deliberately not
honoured — determinism exemptions should be greppable as policy
decisions, not drive-by linter hushes.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Severity levels, ordered.  Every shipped rule currently reports
#: ``error`` (the CI gate fails on any new finding); the field exists so
#: advisory rules can be added without changing the reporters.
SEVERITIES = ("warning", "error")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    severity: str
    path: str  #: posix-style path relative to the lint root
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining: rule + file + message.

        Line numbers are deliberately excluded so unrelated edits above
        a grandfathered finding do not un-baseline it.
        """
        blob = f"{self.rule}::{self.path}::{self.message}"
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class SourceFile:
    """One parsed lint target: AST, raw lines, suppressions, scope."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.root = root
        try:
            self.rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            self.rel = path.as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.AST] = ast.parse(self.text)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        #: line number -> None (suppress everything) or set of rule ids.
        self.noqa: Dict[int, Optional[FrozenSet[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self.noqa[lineno] = None
            else:
                names = frozenset(
                    name.strip().upper()
                    for name in rules.split(",")
                    if name.strip()
                )
                self.noqa[lineno] = names or None
        self.scope = scope_key(self.rel)

    def suppressed(self, finding: Finding) -> bool:
        """True when a ``# repro: noqa`` on the finding's line covers it."""
        entry = self.noqa.get(finding.line, False)
        if entry is False:
            return False
        if entry is None:
            return True
        assert isinstance(entry, frozenset)
        return finding.rule in entry


def scope_key(rel_path: str) -> Optional[str]:
    """The ``repro`` subpackage a path belongs to, or None.

    ``src/repro/kernel/manager.py`` -> ``kernel``; ``repro/cli.py`` ->
    ``""`` (package top level); paths without a ``repro`` segment map to
    None and match only unscoped rules.
    """
    parts = rel_path.split("/")
    try:
        index = parts.index("repro")
    except ValueError:
        return None
    remainder = parts[index + 1:]
    if not remainder:
        return None
    if len(remainder) == 1:  # a module directly under repro/
        return ""
    return remainder[0]


class Rule:
    """Base class for single-file rules.

    Subclasses set :attr:`id` (``REPnnn``), :attr:`title`,
    :attr:`rationale`, and optionally :attr:`scope` — a frozenset of
    ``repro`` subpackage names the rule is confined to (None applies the
    rule everywhere).
    """

    id: str = "REP000"
    title: str = ""
    rationale: str = ""
    severity: str = "error"
    scope: Optional[FrozenSet[str]] = None

    def applies_to(self, src: SourceFile) -> bool:
        if self.scope is None:
            return True
        return src.scope is not None and src.scope in self.scope

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        return ()

    def finding(
        self, src: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=src.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole-project index (cross-file contracts)."""

    def check_project(self, index: "ProjectIndex") -> Iterable[Finding]:
        return ()


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def module_name(rel_path: str) -> str:
    """Dotted module name of a posix-style relative path.

    ``src/repro/kernel/manager.py`` -> ``repro.kernel.manager``;
    ``pkg/__init__.py`` -> ``pkg``.  Paths outside a ``src`` layout map
    from their own directory structure, which keeps fixture trees
    addressable.
    """
    parts = rel_path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


class ImportMap:
    """Resolves names in one module to dotted import paths.

    Handles ``import time``, ``import numpy as np``, and ``from time
    import perf_counter as pc``; method calls resolve through attribute
    chains (``dt.datetime.now`` -> ``datetime.datetime.now`` when ``dt``
    aliases ``datetime``).

    Relative imports are anchored at the package of the module at
    ``rel_path`` — which, for a package's ``__init__.py``, is the package
    itself: in ``repro/arena/__init__.py`` ``from ..experiments.parallel
    import run_jobs`` binds ``run_jobs`` to
    ``repro.experiments.parallel.run_jobs``.  A relative import that
    climbs above the top-level package binds nothing.
    """

    def __init__(self, tree: ast.AST, rel_path: str) -> None:
        package = module_name(rel_path).split(".")
        if not rel_path.endswith("__init__.py"):
            package = package[:-1]
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level > 0:
                    if node.level > len(package):
                        continue
                    anchor = package[: len(package) - (node.level - 1)]
                    base = ".".join([*anchor, base] if base else anchor)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{base}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ----------------------------------------------------------------------
# Engine entry point
# ----------------------------------------------------------------------
from .project import FileFacts, ProjectIndex, extract_file_facts  # noqa: E402


@dataclass
class LintResult:
    """Outcome of one lint run, before/after baseline filtering."""

    findings: List[Finding]          #: new findings (fail the run)
    baselined: List[Finding]         #: grandfathered via the baseline
    suppressed: List[Finding]        #: silenced by ``# repro: noqa``
    files_checked: int
    rules_run: List[str]
    #: Rel paths the report covers: every checked file, or only the
    #: git-touched ones under ``--changed`` (the baseline update scope).
    linted: List[str]

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[Path], root: Path) -> List[SourceFile]:
    """All python files under ``paths``, parsed, in deterministic order."""
    seen: Dict[str, SourceFile] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            src = SourceFile(path, root)
            seen[src.rel] = src
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                src = SourceFile(candidate, root)
                seen[src.rel] = src
    return [seen[rel] for rel in sorted(seen)]


# ----------------------------------------------------------------------
# Per-file analysis records
# ----------------------------------------------------------------------
@dataclass
class FileAnalysis:
    """Everything one file contributes to a lint run.

    Single-file rule findings (already split by suppression), the noqa
    map (project-rule findings are suppressed against it later), and the
    :class:`~repro.analysis.project.FileFacts` the whole-program passes
    consume.  ``facts`` is None for files that failed to parse.
    """

    rel: str
    findings: List[Finding]
    suppressed: List[Finding]
    noqa: Dict[int, Optional[FrozenSet[str]]]
    facts: Optional[FileFacts]


def analyze_file(src: SourceFile, rules: Sequence[Rule]) -> FileAnalysis:
    """Run the single-file rules and extract facts for one file."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    facts: Optional[FileFacts] = None
    if src.tree is None:
        assert src.syntax_error is not None
        findings.append(Finding(
            rule="REP001",
            severity="error",
            path=src.rel,
            line=src.syntax_error.lineno or 1,
            col=(src.syntax_error.offset or 0) + 1,
            message=f"syntax error: {src.syntax_error.msg}",
        ))
    else:
        for rule in rules:
            if isinstance(rule, ProjectRule) or not rule.applies_to(src):
                continue
            for finding in rule.check_file(src):
                if src.suppressed(finding):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
        facts = extract_file_facts(src.rel, src.tree)
    return FileAnalysis(
        rel=src.rel,
        findings=findings,
        suppressed=suppressed,
        noqa=dict(src.noqa),
        facts=facts,
    )


def _noqa_covers(
    noqa: Dict[int, Optional[FrozenSet[str]]], finding: Finding
) -> bool:
    entry = noqa.get(finding.line, False)
    if entry is False:
        return False
    return entry is None or finding.rule in entry


def finish_run(
    analyses: Sequence[FileAnalysis], rules: Sequence[Rule]
) -> Tuple[List[Finding], List[Finding]]:
    """Merge per-file analyses and run the whole-program rules.

    Analyses are sorted by path first, so the project rules see the same
    facts in the same order whatever order the files were analyzed in.
    """
    ordered = sorted(analyses, key=lambda a: a.rel)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for analysis in ordered:
        findings.extend(analysis.findings)
        suppressed.extend(analysis.suppressed)

    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if project_rules:
        index = ProjectIndex(
            [a.facts for a in ordered if a.facts is not None]
        )
        noqa_by_rel = {a.rel: a.noqa for a in ordered}
        for rule in project_rules:
            for finding in rule.check_project(index):
                noqa = noqa_by_rel.get(finding.path, {})
                if _noqa_covers(noqa, finding):
                    suppressed.append(finding)
                else:
                    findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, suppressed


def run_rules(
    files: Sequence[SourceFile],
    rules: Sequence[Rule],
) -> Tuple[List[Finding], List[Finding]]:
    """Run every rule over every applicable file.

    Returns ``(findings, suppressed)``; baseline filtering happens in
    the caller so ``--update-baseline`` sees the raw set.
    """
    return finish_run([analyze_file(src, rules) for src in files], rules)
