"""Cross-file facts the contract and whole-program rules check against.

Per-file extraction produces a :class:`FileFacts` record — plain data
covering everything the project-level rules need:

* module-level ``SCHEMA_VERSION``/``SCHEMA_FINGERPRINT`` constants and
  the ``SessionResult`` field list (REP204);
* class field shapes, process-boundary submission sites, and the
  return annotation of every function (to see through payload factory
  helpers) feeding the pickle-escape pass (REP130).

:class:`ProjectIndex` links the per-file records into the whole-program
model (escape analysis).
Everything is syntactic: no imports are executed, so the linter runs on
broken or dependency-free checkouts.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import ImportMap, module_name
from .escape import (
    ClassShape, PickleEscape, SubmitSite, extract_classes,
    extract_submit_sites,
)


@dataclass(frozen=True)
class ConstantSite:
    """A module-level constant assignment (SCHEMA_VERSION and friends)."""

    name: str
    value: object
    path: str
    line: int


def session_result_fingerprint(fields: Sequence[Tuple[str, str]]) -> str:
    """Digest of the (ordered) SessionResult field list.

    Any change to field names, order, or annotations changes this value,
    which REP204 requires to match the recorded ``SCHEMA_FINGERPRINT`` —
    forcing a deliberate, reviewed ``SCHEMA_VERSION`` bump whenever the
    cached payload shape moves.
    """
    blob = "\n".join(f"{name}:{annotation}" for name, annotation in fields)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class FileFacts:
    """Everything the project rules need from one file, as plain data."""

    rel: str
    module: str
    constants: List[ConstantSite] = field(default_factory=list)
    session_result_fields: Optional[List[Tuple[str, str]]] = None
    session_result_line: Optional[int] = None
    #: Function qualname -> (module, return annotation source or None).
    returns: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    classes: List[ClassShape] = field(default_factory=list)
    submit_sites: List[SubmitSite] = field(default_factory=list)


def extract_file_facts(rel: str, tree: ast.AST) -> FileFacts:
    """Run every per-file extraction pass over one parsed module."""
    module = module_name(rel)
    facts = FileFacts(rel=rel, module=module)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SessionResult":
            fields: List[Tuple[str, str]] = []
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    fields.append(
                        (stmt.target.id, ast.unparse(stmt.annotation))
                    )
            facts.session_result_fields = fields
            facts.session_result_line = node.lineno
        elif isinstance(node, ast.Assign):
            _scan_assign(facts, node)
    facts.returns = _return_annotations(tree, module)
    facts.classes = extract_classes(tree, module)
    facts.submit_sites = extract_submit_sites(
        tree, module, ImportMap(tree, rel)
    )
    return facts


def _return_annotations(
    tree: ast.AST, module: str
) -> Dict[str, Tuple[str, Optional[str]]]:
    """Qualname -> (module, return annotation) for every function.

    Qualnames are ``module.Class.name`` for methods and ``module.name``
    otherwise; a def nested in a function keeps its enclosing class
    prefix.  A later def of the same qualname replaces an earlier one.
    """
    returns: Dict[str, Tuple[str, Optional[str]]] = {}

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(
                    part for part in (module, cls, child.name) if part
                )
                annotation = (
                    ast.unparse(child.returns) if child.returns else None
                )
                returns[qualname] = (module, annotation)
                visit(child, cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)

    visit(tree, None)
    return returns


def _scan_assign(facts: FileFacts, node: ast.Assign) -> None:
    for target in node.targets:
        if isinstance(target, ast.Name) and target.id in (
            "SCHEMA_VERSION", "SCHEMA_FINGERPRINT"
        ):
            value: object = None
            if isinstance(node.value, ast.Constant):
                value = node.value.value
            facts.constants.append(ConstantSite(
                name=target.id,
                value=value,
                path=facts.rel,
                line=node.lineno,
            ))


class ProjectIndex:
    """Facts extracted from every file in the lint target set.

    Built from the per-file :class:`FileFacts` records.  The
    whole-program escape analysis is constructed lazily so rule
    subsets that never touch it pay nothing.
    """

    def __init__(self, facts: Sequence[FileFacts]) -> None:
        ordered = sorted(facts, key=lambda f: f.rel)
        self.facts: Dict[str, FileFacts] = {f.rel: f for f in ordered}
        self.constants: Dict[str, List[ConstantSite]] = {}
        #: Ordered (name, annotation) pairs of the SessionResult fields.
        self.session_result_fields: Optional[List[Tuple[str, str]]] = None
        self.session_result_site: Optional[Tuple[str, int]] = None
        #: Dotted module name -> relative path (for model findings).
        self.module_paths: Dict[str, str] = {}
        for f in ordered:
            for site in f.constants:
                self.constants.setdefault(site.name, []).append(site)
            if f.session_result_fields is not None:
                self.session_result_fields = f.session_result_fields
                self.session_result_site = (f.rel, f.session_result_line or 1)
            self.module_paths[f.module] = f.rel
        self._escape: Optional[PickleEscape] = None

    # -- lazy whole-program model ---------------------------------------
    @property
    def escape(self) -> PickleEscape:
        if self._escape is None:
            self._escape = PickleEscape(
                classes=[c for f in self.facts.values() for c in f.classes],
                submit_sites=[
                    s for f in self.facts.values() for s in f.submit_sites
                ],
                returns={
                    qualname: entry
                    for f in self.facts.values()
                    for qualname, entry in f.returns.items()
                },
            )
        return self._escape

    def path_of_module(self, module: str) -> Optional[str]:
        return self.module_paths.get(module)
