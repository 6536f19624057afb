"""Contract rules: cross-file agreements that must never drift.

The result cache trusts ``SCHEMA_VERSION`` to change whenever
``SessionResult`` changes shape, and the parallel fabric trusts every
shipped callable to survive pickling.  These rules make each of those
handshakes checkable at lint time:

========  ==========================================================
REP204    SessionResult shape changed without a SCHEMA_FINGERPRINT /
          SCHEMA_VERSION bump
REP205    lambda / nested closure handed to the parallel fabric
          (unpicklable in worker processes)
========  ==========================================================

The emit bus needs no rule here: its topics are constants in
``repro.sim.bus``, so a misspelled topic is a ``NameError``, and
``Simulator.on`` rejects an undeclared topic or a handler of the wrong
shape.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from ..engine import Finding, ProjectRule, Rule, SourceFile
from ..project import ProjectIndex, session_result_fingerprint


# ----------------------------------------------------------------------
class SchemaFingerprintRule(ProjectRule):
    """REP204: SessionResult shape vs. recorded cache-schema fingerprint."""

    id = "REP204"
    title = "SessionResult shape drifted from the cache schema"
    rationale = (
        "Cached SessionResult pickles are keyed by SCHEMA_VERSION; a "
        "field change without a version bump replays stale results.  "
        "The recorded SCHEMA_FINGERPRINT pins the field list, so any "
        "shape change forces a deliberate bump of both."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        if index.session_result_fields is None:
            return
        versions = index.constants.get("SCHEMA_VERSION", [])
        if not versions:
            return  # no cache module in the lint target set
        expected = session_result_fingerprint(index.session_result_fields)
        recorded = index.constants.get("SCHEMA_FINGERPRINT", [])
        version_site = versions[0]
        if not recorded:
            yield Finding(
                rule=self.id, severity=self.severity,
                path=version_site.path, line=version_site.line, col=1,
                message=(
                    "SCHEMA_VERSION has no companion SCHEMA_FINGERPRINT — "
                    f'add SCHEMA_FINGERPRINT = "{expected}" next to it so '
                    "SessionResult shape changes are caught statically"
                ),
            )
            return
        for site in recorded:
            if site.value != expected:
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=site.path, line=site.line, col=1,
                    message=(
                        "SessionResult fields changed but "
                        f"SCHEMA_FINGERPRINT is stale — bump SCHEMA_VERSION "
                        f'and set SCHEMA_FINGERPRINT = "{expected}"'
                    ),
                )


# ----------------------------------------------------------------------
class FabricPickleRule(Rule):
    """REP205: unpicklable callables handed to the parallel fabric."""

    id = "REP205"
    title = "unpicklable callable shipped to worker processes"
    rationale = (
        "ProcessPoolExecutor pickles every submitted callable and "
        "argument; lambdas and closures defined inside functions fail "
        "at dispatch time (or, worse, only when --jobs > 1 is first "
        "used in CI).  Ship module-level functions or classes."
    )

    #: Call shapes that cross a process boundary.
    SUBMIT_ATTRS = frozenset({"submit"})
    #: Keyword arguments that end up inside a pickled SessionSpec.
    SPEC_CALLABLE_KWARGS = frozenset({"abr"})
    SPEC_CTORS = frozenset({"SessionSpec"})

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        findings: List[Finding] = []
        nested_defs = _nested_function_names(src.tree)

        def unpicklable(node: ast.AST) -> Optional[str]:
            if isinstance(node, ast.Lambda):
                return "lambda"
            if isinstance(node, ast.Name) and node.id in nested_defs:
                return f"nested function {node.id!r}"
            return None

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.SUBMIT_ATTRS
            ):
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    kind = unpicklable(arg)
                    if kind is not None:
                        findings.append(self.finding(
                            src, arg,
                            f"{kind} passed to .submit() cannot be "
                            "pickled into a worker process — use a "
                            "module-level function",
                        ))
            ctor = func.id if isinstance(func, ast.Name) else None
            if ctor in self.SPEC_CTORS or any(
                kw.arg in self.SPEC_CALLABLE_KWARGS for kw in node.keywords
            ):
                for kw in node.keywords:
                    if kw.arg in self.SPEC_CALLABLE_KWARGS:
                        kind = unpicklable(kw.value)
                        if kind is not None:
                            findings.append(self.finding(
                                src, kw.value,
                                f"{kind} as {kw.arg}= is captured by a "
                                "SessionSpec and pickled to workers — "
                                "pass a module-level class or factory",
                            ))
        return findings


def _nested_function_names(tree: ast.AST) -> Set[str]:
    """Names of functions defined inside other functions (closures)."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                walk(child, True)
            elif isinstance(child, ast.Lambda):
                walk(child, True)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return nested


CONTRACT_RULES: Tuple[type, ...] = (
    SchemaFingerprintRule,
    FabricPickleRule,
)
