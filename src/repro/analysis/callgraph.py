"""Project-wide call graph with alias and import resolution.

The single-file rules (REP101–REP110) see one module at a time, which
means a wall-clock read laundered through one function call is
invisible to them.  This module gives the interprocedural passes the
structure they need:

* every function and method in the lint target set, keyed by a stable
  dotted qualname (``repro.kernel.manager.MemoryManager.kill``);
* every call site inside each function, resolved through import
  aliases — including *relative* imports (``from ..sim.rng import
  derive_seed``) — ``self.method()`` dispatch, and same-module names;
* per-function local taint summaries (computed by
  :mod:`repro.analysis.dataflow` during extraction) that the global
  fixpoint then links across the graph.

Everything extracted here is plain data (lists of dataclasses), built
once per file and linked across files by :class:`CallGraph`.
Construction is deliberately order-independent: modules are indexed by
sorted qualname, so shuffling the input file list cannot change any
resolution or any downstream finding (``tests/analysis`` holds this
with a hypothesis property).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Marker prefix for calls that could not be resolved to a project
#: function (``obj.attr()`` on an unknown object): the graph keeps the
#: attribute name for diagnostics but propagates nothing through it.
UNRESOLVED = "?."


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


class ImportResolver:
    """Maps names bound in one module to absolute dotted paths.

    Unlike :class:`~repro.analysis.engine.ImportMap` this resolver also
    handles relative imports, anchored at the importing module's
    package: in ``repro.arena.driver``, ``from ..experiments.parallel
    import run_jobs`` binds ``run_jobs`` to
    ``repro.experiments.parallel.run_jobs``.
    """

    def __init__(self, tree: ast.AST, module: str) -> None:
        self.module = module
        package_parts = module.split(".")[:-1] if module else []
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
                    anchor = package_parts[: len(package_parts) - (node.level - 1)]
                    base = ".".join([*anchor, base] if base else anchor)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{base}.{alias.name}" if base else alias.name

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


@dataclass
class SinkFlow:
    """One value reaching a determinism sink inside a function."""

    kind: str        #: sink family: seed | key | journal | emit
    detail: str      #: human-readable sink description
    line: int
    col: int
    direct: List[str] = field(default_factory=list)   #: taint kinds seen locally
    calls: List[str] = field(default_factory=list)    #: call targets feeding the sink
    params: List[str] = field(default_factory=list)   #: own params feeding the sink


@dataclass
class CallSite:
    """One call inside a function, with per-argument taint summaries."""

    target: str      #: resolved dotted path, or ``?.attr`` when unresolved
    line: int
    col: int
    #: Positional-argument taint: (kinds, call targets, own params), one
    #: triple per argument, parallel to the callee's parameter list.
    args: List[Tuple[List[str], List[str], List[str]]] = field(default_factory=list)
    #: Keyword-argument taint, keyed by keyword name.
    kwargs: Dict[str, Tuple[List[str], List[str], List[str]]] = field(
        default_factory=dict
    )


@dataclass
class FunctionInfo:
    """One function or method: identity, calls, and local taint facts."""

    qualname: str                 #: module.Class.name or module.name
    name: str
    module: str
    cls: Optional[str]            #: enclosing class name, or None
    params: List[str]             #: parameter names, ``self``/``cls`` dropped
    line: int
    #: Taint kinds whose values flow to a ``return`` locally.
    return_taint: List[str] = field(default_factory=list)
    #: Call targets whose results flow to a ``return``.
    return_calls: List[str] = field(default_factory=list)
    #: Own parameters whose values flow to a ``return``.
    return_params: List[str] = field(default_factory=list)
    sink_flows: List[SinkFlow] = field(default_factory=list)
    call_sites: List[CallSite] = field(default_factory=list)
    #: Source text of the return annotation, if any (mined by the
    #: pickle-escape pass to resolve payload factory helpers).
    returns_ann: Optional[str] = None


def extract_functions(
    tree: ast.AST, module: str, rel_path: str
) -> List[FunctionInfo]:
    """Every function/method in a module, with local taint summaries.

    Module-level statements are collected into a synthetic
    ``<module>`` function so sinks fed at import time are analyzed too.
    """
    from .dataflow import analyze_function  # deferred: avoids a cycle

    resolver = ImportResolver(tree, module)
    local_names = frozenset(
        child.name for child in getattr(tree, "body", [])
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
    )
    functions: List[FunctionInfo] = []

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual_parts = [module] if module else []
                if cls:
                    qual_parts.append(cls)
                qual_parts.append(child.name)
                functions.append(analyze_function(
                    child, ".".join(qual_parts), module, cls, resolver,
                    local_names,
                ))
                # Nested defs are analyzed as their own (unlinked-by-
                # name) functions; closures over locals are out of model.
                visit(child, cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)

    visit(tree, None)
    module_body = [
        stmt for stmt in getattr(tree, "body", [])
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
    ]
    if module_body:
        synthetic = ast.Module(body=module_body, type_ignores=[])
        functions.append(analyze_function(
            synthetic, f"{module}.<module>" if module else "<module>",
            module, None, resolver, local_names,
            synthetic_name="<module>",
        ))
    functions.sort(key=lambda fn: (fn.line, fn.qualname))
    return functions


class CallGraph:
    """The linked whole-program graph over extracted function facts."""

    def __init__(self, per_file: Dict[str, List[FunctionInfo]]) -> None:
        #: qualname -> FunctionInfo, insertion in sorted-qualname order.
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare method name -> sorted owner qualnames (self-call fallback).
        self._by_method: Dict[str, List[str]] = {}
        for rel in sorted(per_file):
            for info in per_file[rel]:
                self.functions[info.qualname] = info
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.cls is not None:
                self._by_method.setdefault(info.name, []).append(qualname)

    def resolve(self, target: str, caller: Optional[FunctionInfo] = None) -> Optional[str]:
        """Resolve a call-site target to a known function qualname."""
        if target.startswith(UNRESOLVED):
            # ``self.method()`` was encoded as ``?.<name>`` plus caller
            # context: prefer a method of the caller's own class.
            name = target[len(UNRESOLVED):]
            if caller is not None and caller.cls is not None:
                own = f"{caller.module}.{caller.cls}.{name}"
                if own in self.functions:
                    return own
                # One level of same-module fallback covers mixins and
                # base classes defined beside their subclass.
                candidates = [
                    qual for qual in self._by_method.get(name, ())
                    if self.functions[qual].module == caller.module
                ]
                if len(candidates) == 1:
                    return candidates[0]
            return None
        if target in self.functions:
            return target
        # A dotted path may name a method through its class
        # (``Class.method`` referenced from another module).
        return None

    def edges(self) -> List[Tuple[str, str]]:
        """Resolved (caller, callee) pairs, sorted — for tests/tools."""
        pairs = set()
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for site in info.call_sites:
                resolved = self.resolve(site.target, info)
                if resolved is not None:
                    pairs.add((qualname, resolved))
        return sorted(pairs)


def build_call_graph(
    per_file: Dict[str, Sequence[FunctionInfo]]
) -> CallGraph:
    return CallGraph({rel: list(infos) for rel, infos in per_file.items()})
