"""Cross-file facts the contract and whole-program rules check against.

Per-file extraction produces a :class:`FileFacts` record — plain data
covering everything the project-level rules need:

* every literal-topic ``emit("topic", ...)``/``on("topic", cb)`` site
  and ``if "topic" in sim.topics:`` emit gate (REP201–REP203) plus the
  payload *shapes* and handler signatures the schema-inference pass
  types against (REP220-series);
* module-level ``SCHEMA_VERSION``/``SCHEMA_FINGERPRINT`` constants and
  the ``SessionResult`` field list (REP204);
* class field shapes, process-boundary submission sites, and the
  return annotation of every function (to see through payload factory
  helpers) feeding the pickle-escape pass (REP130).

:class:`ProjectIndex` links the per-file records into the whole-program
models (schema model, escape analysis).
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
from .schema_infer import (
    EmitShape, HandlerShape, SchemaModel, SubscriptionShape,
    extract_schema_facts,
)

@dataclass(frozen=True)
class TopicSite:
    """One emit() or on() call with a literal topic string."""

    topic: str
    path: str
    line: int
    col: int
    #: Keyword names passed alongside the topic (emit payload keys).
    payload_keys: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TopicGate:
    """One ``"topic" in <x>.topics`` (or ``not in``) test in an ``if``."""

    topic: str
    path: str
    line: int
    col: int
    #: Literal-topic emits in the guarded body that no ``in`` test of
    #: the same ``if`` names (kept on its first ``in`` test only).
    stray_emits: Tuple[TopicSite, ...] = ()


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
    emits: List[TopicSite] = field(default_factory=list)
    subscriptions: List[TopicSite] = field(default_factory=list)
    dynamic_topics: List[TopicSite] = field(default_factory=list)
    gates: List[TopicGate] = field(default_factory=list)
    constants: List[ConstantSite] = field(default_factory=list)
    session_result_fields: Optional[List[Tuple[str, str]]] = None
    session_result_line: Optional[int] = None
    #: Function qualname -> (module, return annotation source or None).
    returns: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    emit_shapes: List[EmitShape] = field(default_factory=list)
    sub_shapes: List[SubscriptionShape] = field(default_factory=list)
    handlers: List[HandlerShape] = field(default_factory=list)
    classes: List[ClassShape] = field(default_factory=list)
    submit_sites: List[SubmitSite] = field(default_factory=list)


def extract_file_facts(rel: str, tree: ast.AST) -> FileFacts:
    """Run every per-file extraction pass over one parsed module."""
    module = module_name(rel)
    facts = FileFacts(rel=rel, module=module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            _scan_call(facts, node)
        elif isinstance(node, ast.If):
            facts.gates.extend(_topic_gates(facts.rel, node))
        elif isinstance(node, ast.ClassDef) and node.name == "SessionResult":
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
    facts.emit_shapes, facts.sub_shapes, facts.handlers = (
        extract_schema_facts(tree, module)
    )
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


def _topic_site(rel: str, node: ast.Call) -> Optional[TopicSite]:
    """The site of a call whose first argument is a literal topic."""
    first = node.args[0] if node.args else None
    if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
        return None
    return TopicSite(
        topic=first.value,
        path=rel,
        line=node.lineno,
        col=node.col_offset + 1,
        payload_keys=tuple(
            kw.arg for kw in node.keywords if kw.arg is not None
        ),
    )


def _scan_call(facts: FileFacts, node: ast.Call) -> None:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in ("emit", "on"):
        return
    if not node.args:
        return
    site = _topic_site(facts.rel, node)
    if site is not None:
        if func.attr == "emit":
            facts.emits.append(site)
        else:
            # Require the (topic, callback) shape so unrelated .on()
            # APIs (e.g. event-emitter libraries) are not swept in.
            if len(node.args) == 2:
                facts.subscriptions.append(site)
    elif func.attr == "emit":
        facts.dynamic_topics.append(TopicSite(
            topic="<dynamic>",
            path=facts.rel,
            line=node.lineno,
            col=node.col_offset + 1,
        ))


def _is_topics(node: ast.expr) -> bool:
    """``<x>.topics``, or an alias of it: ``topics``, ``self._topics``."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return name.lstrip("_") == "topics"


def _gate_tests(test: ast.expr) -> List[Tuple[ast.Constant, bool]]:
    """``("topic", positive)`` for each ``"topic" [not] in <x>.topics``
    comparison in an ``if`` test."""
    tests: List[Tuple[ast.Constant, bool]] = []
    for node in ast.walk(test):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
            continue
        left, op, right = node.left, node.ops[0], node.comparators[0]
        if not (isinstance(left, ast.Constant) and isinstance(left.value, str)):
            continue
        if not isinstance(op, (ast.In, ast.NotIn)):
            continue
        if _is_topics(right):
            tests.append((left, isinstance(op, ast.In)))
    return tests


def _topic_gates(rel: str, node: ast.If) -> List[TopicGate]:
    """One gate per topic test of ``node``; emits in its body that no
    ``in`` test names go on the first ``in`` gate."""
    tests = _gate_tests(node.test)
    named = [const for const, positive in tests if positive]
    stray: Tuple[TopicSite, ...] = ()
    if named:
        topics = {const.value for const in named}
        emits = [
            _topic_site(rel, call)
            for stmt in node.body for call in ast.walk(stmt)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "emit"
        ]
        stray = tuple(
            site for site in emits
            if site is not None and site.topic not in topics
        )
    return [
        TopicGate(
            topic=const.value,
            path=rel,
            line=const.lineno,
            col=const.col_offset + 1,
            stray_emits=stray if named and const is named[0] else (),
        )
        for const, _ in tests
    ]


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
    whole-program models (schema model, escape analysis) are
    constructed lazily so rule subsets that never touch them pay
    nothing.
    """

    def __init__(self, facts: Sequence[FileFacts]) -> None:
        ordered = sorted(facts, key=lambda f: f.rel)
        self.facts: Dict[str, FileFacts] = {f.rel: f for f in ordered}
        self.emits: List[TopicSite] = []
        self.subscriptions: List[TopicSite] = []
        self.dynamic_topics: List[TopicSite] = []
        self.gates: List[TopicGate] = []
        self.constants: Dict[str, List[ConstantSite]] = {}
        #: Ordered (name, annotation) pairs of the SessionResult fields.
        self.session_result_fields: Optional[List[Tuple[str, str]]] = None
        self.session_result_site: Optional[Tuple[str, int]] = None
        #: Dotted module name -> relative path (for model findings).
        self.module_paths: Dict[str, str] = {}
        for f in ordered:
            self.emits.extend(f.emits)
            self.subscriptions.extend(f.subscriptions)
            self.dynamic_topics.extend(f.dynamic_topics)
            self.gates.extend(f.gates)
            for site in f.constants:
                self.constants.setdefault(site.name, []).append(site)
            if f.session_result_fields is not None:
                self.session_result_fields = f.session_result_fields
                self.session_result_site = (f.rel, f.session_result_line or 1)
            self.module_paths[f.module] = f.rel
        self._schema: Optional[SchemaModel] = None
        self._escape: Optional[PickleEscape] = None

    # -- lazy whole-program models --------------------------------------
    @property
    def schema(self) -> SchemaModel:
        if self._schema is None:
            self._schema = SchemaModel(
                emits=[s for f in self.facts.values() for s in f.emit_shapes],
                subscriptions=[
                    s for f in self.facts.values() for s in f.sub_shapes
                ],
                handlers=[h for f in self.facts.values() for h in f.handlers],
            )
        return self._schema

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

    # ------------------------------------------------------------------
    @property
    def emitted_topics(self) -> Dict[str, List[TopicSite]]:
        grouped: Dict[str, List[TopicSite]] = {}
        for site in self.emits:
            grouped.setdefault(site.topic, []).append(site)
        return grouped

    @property
    def subscribed_topics(self) -> Dict[str, List[TopicSite]]:
        grouped: Dict[str, List[TopicSite]] = {}
        for site in self.subscriptions:
            grouped.setdefault(site.topic, []).append(site)
        return grouped
