"""Pickle-boundary escape analysis.

Everything submitted across the ``run_jobs``/``run_sessions`` process
boundary must be transitively picklable and free of live handles.
:func:`extract_classes` records the annotated field lists of every
class; :func:`extract_submit_sites` resolves the payload expression at
each submission call to candidate payload classes (directly-constructed,
or through a factory helper's return annotation); :class:`PickleEscape`
then walks field annotations transitively and reports any live-handle
type (open files, simulator engines, executors, locks, temp dirs) with
the full field path.

The analysis produces plain-data records; ``rules/boundaries.py``
translates them into REP130 findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .engine import ImportMap

#: Annotation tokens that name live handles or process-bound resources.
#: Anything carrying one of these across a process boundary either fails
#: to pickle outright or silently forks state (which is worse).
BANNED_FIELD_TYPES = frozenset({
    "Simulator", "Device", "IO", "TextIO", "BinaryIO", "TextIOWrapper",
    "BufferedReader", "BufferedWriter", "TemporaryDirectory",
    "NamedTemporaryFile", "Popen", "Thread", "Lock", "RLock",
    "Condition", "Semaphore", "BoundedSemaphore", "Barrier", "Queue",
    "socket", "ProcessPoolExecutor", "ThreadPoolExecutor", "Executor",
    "Future", "SweepJournal", "ResultCache", "Generator", "Iterator",
})

#: Typing scaffolding that never names a payload class.
_ANN_NOISE = frozenset({
    "Optional", "List", "Dict", "Tuple", "Set", "FrozenSet", "Sequence",
    "Mapping", "MutableMapping", "Union", "Any", "None", "Literal",
    "Callable", "Type", "ClassVar", "Final", "Annotated", "int", "str",
    "float", "bool", "bytes", "object", "list", "dict", "tuple", "set",
    "frozenset", "type", "Path",
})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def annotation_tokens(annotation: str) -> List[str]:
    """Class-like identifiers inside an annotation string, in order."""
    seen = []
    for token in _IDENT_RE.findall(annotation):
        if token not in _ANN_NOISE and token not in seen:
            seen.append(token)
    return seen


@dataclass
class ClassShape:
    """Annotated fields of one class (pickle-payload candidates)."""

    qualname: str
    name: str
    module: str
    line: int
    fields: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class SubmitSite:
    """One call that ships a payload across the process boundary."""

    callee: str                 #: run_jobs | run_sessions | submit
    module: str
    line: int
    col: int
    #: Payload classes constructed directly at/near the call site.
    classes: List[str] = field(default_factory=list)
    #: Factory calls whose return annotation names the payload type.
    factory_calls: List[str] = field(default_factory=list)


_BOUNDARY_FNS = frozenset({"run_jobs", "run_sessions"})


def extract_classes(tree: ast.AST, module: str) -> List[ClassShape]:
    shapes: List[ClassShape] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                shape = ClassShape(
                    qualname=qualname, name=child.name,
                    module=module, line=child.lineno,
                )
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) \
                            and isinstance(stmt.target, ast.Name):
                        shape.fields.append(
                            (stmt.target.id, ast.unparse(stmt.annotation))
                        )
                shapes.append(shape)
                visit(child, qualname)

    visit(tree, module)
    return shapes


class _PayloadResolver:
    """Resolves a submit-site payload expression to class/factory names."""

    def __init__(
        self, imports: ImportMap, assignments: Dict[str, ast.AST],
        module: str,
    ):
        self.imports = imports
        self.assignments = assignments
        self.module = module

    def _callee(self, func: ast.AST) -> str:
        """Dotted name of a called function or class.  A bare name that
        no import binds is defined in this module, and is qualified as
        the project facts key it (``module.build_jobs``)."""
        if isinstance(func, ast.Name) and func.id not in self.imports.aliases:
            return f"{self.module}.{func.id}"
        return self.imports.resolve(func) or ""

    def resolve(self, expr: ast.AST, depth: int = 0) -> Tuple[List[str], List[str]]:
        classes: List[str] = []
        factories: List[str] = []
        if depth > 4:
            return classes, factories
        if isinstance(expr, ast.Call):
            dotted = self._callee(expr.func)
            base = dotted.rsplit(".", 1)[-1]
            if base and base[0].isupper():
                classes.append(dotted or base)
            elif dotted:
                factories.append(dotted)
        elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for elt in expr.elts:
                c, f = self.resolve(elt, depth + 1)
                classes += c
                factories += f
        elif isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            c, f = self.resolve(expr.elt, depth + 1)
            classes += c
            factories += f
        elif isinstance(expr, ast.Name):
            assigned = self.assignments.get(expr.id)
            if assigned is not None:
                c, f = self.resolve(assigned, depth + 1)
                classes += c
                factories += f
        elif isinstance(expr, ast.Starred):
            c, f = self.resolve(expr.value, depth + 1)
            classes += c
            factories += f
        return classes, factories


def extract_submit_sites(
    tree: ast.AST, module: str, imports: ImportMap
) -> List[SubmitSite]:
    # Last simple assignment per name (function-scope precision is not
    # needed: payload variables are rarely shadowed across functions in
    # one module, and a wrong guess only adds a *checked* class).
    assignments: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            assignments[node.targets[0].id] = node.value
    payload_resolver = _PayloadResolver(imports, assignments, module)

    sites: List[SubmitSite] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        callee: Optional[str] = None
        payload: Optional[ast.AST] = None
        if isinstance(func, ast.Name) and func.id in _BOUNDARY_FNS:
            callee = func.id
            payload = node.args[0]
        elif isinstance(func, ast.Attribute):
            if func.attr in _BOUNDARY_FNS:
                callee = func.attr
                payload = node.args[0]
            elif func.attr == "submit" and len(node.args) >= 2:
                # executor.submit(fn, payload, ...): the arguments are
                # what crosses the boundary.
                callee = "submit"
                payload = ast.Tuple(
                    elts=list(node.args[1:]), ctx=ast.Load(),
                )
        if callee is None or payload is None:
            continue
        classes, factories = payload_resolver.resolve(payload)
        if classes or factories:
            sites.append(SubmitSite(
                callee=callee, module=module,
                line=node.lineno, col=node.col_offset + 1,
                classes=sorted(set(classes)),
                factory_calls=sorted(set(factories)),
            ))
    return sites


@dataclass(frozen=True)
class EscapeFinding:
    """An unpicklable/live-handle field reachable from a submitted payload."""

    module: str
    line: int
    col: int
    callee: str
    path: Tuple[str, ...]   #: e.g. ("CohortJob", "config: FleetConfig", "journal: SweepJournal")
    banned: str

    def message(self) -> str:
        trail = " -> ".join(self.path)
        return (
            f"payload submitted across the {self.callee}() process "
            f"boundary reaches a live handle: {trail} "
            f"({self.banned} cannot safely cross a pickle boundary)"
        )


class PickleEscape:
    """Transitive field walk from every submit site's payload classes."""

    def __init__(
        self,
        classes: Sequence[ClassShape],
        submit_sites: Sequence[SubmitSite],
        returns: Dict[str, Tuple[str, Optional[str]]],
    ) -> None:
        self.by_qualname: Dict[str, ClassShape] = {}
        self.by_name: Dict[str, List[ClassShape]] = {}
        for shape in sorted(classes, key=lambda s: s.qualname):
            self.by_qualname[shape.qualname] = shape
            self.by_name.setdefault(shape.name, []).append(shape)
        self.submit_sites = sorted(
            submit_sites, key=lambda s: (s.module, s.line, s.col),
        )
        #: Function qualname -> (module, return annotation or None).
        self.returns = returns

    def _lookup(self, token: str, module: str) -> Optional[ClassShape]:
        if token in self.by_qualname:
            return self.by_qualname[token]
        candidates = self.by_name.get(token.rsplit(".", 1)[-1], [])
        same_module = [c for c in candidates if c.module == module]
        pool = same_module or candidates
        return pool[0] if len(pool) == 1 else (
            same_module[0] if len(same_module) == 1 else None
        )

    def _walk(
        self,
        shape: ClassShape,
        path: Tuple[str, ...],
        visited: FrozenSet[str],
        out: List[Tuple[Tuple[str, ...], str]],
    ) -> None:
        if shape.qualname in visited or len(path) > 6:
            return
        visited = visited | {shape.qualname}
        for field_name, annotation in shape.fields:
            step = f"{field_name}: {annotation}"
            for token in annotation_tokens(annotation):
                if token in BANNED_FIELD_TYPES:
                    out.append((path + (step,), token))
                    continue
                nested = self._lookup(token, shape.module)
                if nested is not None:
                    self._walk(nested, path + (step,), visited, out)

    def _site_classes(self, site: SubmitSite) -> List[ClassShape]:
        shapes: Dict[str, ClassShape] = {}
        for token in site.classes:
            shape = self._lookup(token, site.module)
            if shape is not None:
                shapes[shape.qualname] = shape
        for factory in site.factory_calls:
            module, annotation = self.returns.get(factory, ("", None))
            if not annotation:
                continue
            for token in annotation_tokens(annotation):
                shape = self._lookup(token, module)
                if shape is not None:
                    shapes[shape.qualname] = shape
        return [shapes[q] for q in sorted(shapes)]

    def findings(self) -> List[EscapeFinding]:
        out: List[EscapeFinding] = []
        for site in self.submit_sites:
            for shape in self._site_classes(site):
                hits: List[Tuple[Tuple[str, ...], str]] = []
                self._walk(shape, (shape.name,), frozenset(), hits)
                for path, banned in sorted(set(hits)):
                    out.append(EscapeFinding(
                        module=site.module, line=site.line, col=site.col,
                        callee=site.callee, path=path, banned=banned,
                    ))
        out.sort(key=lambda f: (f.module, f.line, f.col, f.path))
        return out
