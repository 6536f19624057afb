"""Taint dataflow and pickle-boundary escape analysis.

Two analyses live here, both operating on the structures built by
:mod:`repro.analysis.callgraph`:

**Determinism taint.**  A value is *tainted* when it derives from a
wall-clock read, unseeded randomness, ``os.environ``, or set iteration
order.  The intra-function pass (:func:`analyze_function`) computes, per
function, which taint kinds flow to its ``return``, which call results
flow to its ``return``, and which values reach determinism *sinks*
(seeds, content-address/cache keys, journal records, ``emit()``
payloads).  The whole-program pass (:class:`TaintAnalysis`) closes those
summaries over the call graph — return taint propagates backward along
``return f()`` chains, sink reachability propagates backward along
parameter bindings — so a chain like::

    def _entropy(): return time.time_ns()     # source
    def _mix(x):    return _entropy() + x     # hop
    spec = SessionSpec(seed=int(_mix(3)))     # sink — flagged here

is flagged at the point where the tainted value enters the chain, with a
witness path in the message.  The lattice is a powerset over four kinds;
joins are set unions, so the fixpoint is monotone and finite.
``sorted()`` (and other order-insensitive folds) sanitize the
``setorder`` kind only — a sorted list of wall-clock stamps is still
wall-clock derived.

**Pickle-boundary escape.**  Everything submitted across the
``run_jobs``/``run_sessions`` process boundary must be transitively
picklable and free of live handles.  :func:`extract_classes` records the
annotated field lists of every class; :func:`extract_submit_sites`
resolves the payload expression at each submission call to candidate
payload classes (directly-constructed, or through a factory helper's
return annotation); :class:`PickleEscape` then walks field annotations
transitively and reports any live-handle type (open files, simulator
engines, executors, locks, temp dirs) with the full field path.

Both analyses produce plain-data records; the rule classes in
``rules/taint_rules.py`` and ``rules/escape.py`` translate them into
findings with scopes and messages.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from .callgraph import (
    UNRESOLVED, CallGraph, CallSite, FunctionInfo, ImportResolver, SinkFlow,
)

# ----------------------------------------------------------------------
# Taint kinds, sources, sinks
# ----------------------------------------------------------------------
#: The four taint kinds tracked by the REP120-series rules.
KIND_WALLCLOCK = "wallclock"
KIND_RNG = "rng"
KIND_ENV = "env"
KIND_SETORDER = "setorder"

#: Human phrasing used in finding messages, keyed by kind.
KIND_DESC = {
    KIND_WALLCLOCK: "wall-clock time",
    KIND_RNG: "unseeded randomness",
    KIND_ENV: "os.environ",
    KIND_SETORDER: "set iteration order",
}

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_RNG_DRAWS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "lognormvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes",
})

_RNG_CALLS = (
    frozenset(f"random.{fn}" for fn in _RNG_DRAWS)
    | frozenset(f"numpy.random.{fn}" for fn in (
        "random", "rand", "randn", "randint", "normal", "uniform",
        "choice", "shuffle", "permutation", "exponential", "poisson",
    ))
    | frozenset({
        "random.SystemRandom", "os.urandom", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.randbelow",
        "secrets.choice",
    })
)

#: Zero-argument constructors that are seeded when given an argument.
_RNG_IF_UNSEEDED = frozenset({"random.Random", "numpy.random.default_rng"})

_ENV_CALLS = frozenset({"os.getenv", "os.environ.get"})

#: Order-insensitive folds: consuming a set through these is safe.
_SETORDER_SANITIZERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all",
})

#: Iteration-materializing builtins: feeding a set through these bakes
#: its (nondeterministic) order into the result.
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "iter", "enumerate"})

#: Builtins never recorded as call-graph targets.
_BUILTINS = frozenset({
    "len", "int", "str", "float", "bool", "bytes", "repr", "range",
    "print", "isinstance", "issubclass", "enumerate", "zip", "list",
    "tuple", "dict", "set", "frozenset", "sorted", "reversed", "min",
    "max", "sum", "any", "all", "abs", "round", "divmod", "getattr",
    "setattr", "hasattr", "iter", "next", "map", "filter", "format",
    "type", "vars", "id", "hash", "open", "super", "callable", "ord",
    "chr", "hex", "oct", "bin", "slice", "property", "staticmethod",
    "classmethod", "object", "Exception", "ValueError", "TypeError",
    "KeyError", "RuntimeError", "NotImplementedError", "StopIteration",
})

#: Keyword names treated as seed sinks wherever they appear.
_SEED_KWARGS = frozenset({"seed", "base_seed", "master_seed", "rng_seed"})

#: Bare function names whose every argument is a seed sink.
_SEED_FNS = frozenset({"derive_seed"})

#: Bare function names whose every argument is a content-address sink.
_KEY_FNS = frozenset({"cache_key"})

#: A taint value: (kinds, unresolved call targets, own parameters).
TaintVal = Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]

_EMPTY: TaintVal = (frozenset(), frozenset(), frozenset())


def _union(values: Sequence[TaintVal]) -> TaintVal:
    kinds: FrozenSet[str] = frozenset()
    calls: FrozenSet[str] = frozenset()
    params: FrozenSet[str] = frozenset()
    for k, c, p in values:
        kinds |= k
        calls |= c
        params |= p
    return (kinds, calls, params)


def _is_empty(val: TaintVal) -> bool:
    return not (val[0] or val[1] or val[2])


def _target_names(target: ast.AST) -> List[str]:
    """Plain names bound by an assignment/loop target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _classify_source(target: str, has_args: bool) -> Optional[str]:
    if target in _WALLCLOCK_CALLS:
        return KIND_WALLCLOCK
    if target in _RNG_CALLS:
        return KIND_RNG
    if target in _RNG_IF_UNSEEDED and not has_args:
        return KIND_RNG
    if target in _ENV_CALLS:
        return KIND_ENV
    return None


# ----------------------------------------------------------------------
# Intra-function analysis
# ----------------------------------------------------------------------
class _FunctionAnalyzer:
    """Abstract interpreter over one function body.

    Runs the body several times (monotone union into the variable
    environment, so loop-carried flows converge), recording call sites,
    sink flows, and return summaries only on the final pass.
    """

    #: Passes over the body; 2 warm-up passes cover loop-carried taint
    #: to a depth no realistic lint target exceeds.
    PASSES = 3

    def __init__(
        self,
        qualname: str,
        module: str,
        cls: Optional[str],
        resolver: ImportResolver,
        local_names: FrozenSet[str],
        params: Sequence[str],
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.cls = cls
        self.resolver = resolver
        self.local_names = local_names
        self.params = list(params)
        self.taint: Dict[str, TaintVal] = {}
        self.set_vars: Set[str] = set()
        self.recording = False
        self.call_sites: List[CallSite] = []
        self.sink_flows: List[SinkFlow] = []
        self.return_val: TaintVal = _EMPTY

    # -- target encoding ------------------------------------------------
    def encode_target(self, func: ast.AST) -> str:
        dotted = self.resolver.resolve(func)
        if dotted is None:
            attr = func.attr if isinstance(func, ast.Attribute) else ""
            return UNRESOLVED + attr
        parts = dotted.split(".")
        if parts[0] in ("self", "cls"):
            # ``self.method()`` — resolved against the caller's class by
            # the linked graph; deeper chains stay unresolved.
            return UNRESOLVED + parts[-1]
        if len(parts) == 1:
            name = parts[0]
            if name in self.local_names:
                return f"{self.module}.{name}" if self.module else name
            return name
        return dotted

    @staticmethod
    def _trackable(target: str) -> bool:
        """Whether a target is worth keeping as a call-graph edge."""
        if target.startswith(UNRESOLVED):
            return target != UNRESOLVED  # keep self-dispatch with a name
        if target in _BUILTINS:
            return False
        return True

    # -- set-typedness --------------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _iter_taint(self, iterable: ast.AST) -> TaintVal:
        """Taint picked up by iterating ``iterable`` element-wise."""
        val = self.evaluate(iterable)
        if self._is_set_expr(iterable):
            val = _union([val, (frozenset({KIND_SETORDER}), frozenset(), frozenset())])
        return val

    # -- expression evaluation ------------------------------------------
    def evaluate(self, node: Optional[ast.AST]) -> TaintVal:
        if node is None or isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Name):
            return self._eval_name(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return _union([self.evaluate(node.value), self.evaluate(node.slice)])
        if isinstance(node, ast.BinOp):
            return _union([self.evaluate(node.left), self.evaluate(node.right)])
        if isinstance(node, ast.BoolOp):
            return _union([self.evaluate(v) for v in node.values])
        if isinstance(node, ast.Compare):
            return _union([self.evaluate(node.left)]
                          + [self.evaluate(c) for c in node.comparators])
        if isinstance(node, ast.UnaryOp):
            return self.evaluate(node.operand)
        if isinstance(node, ast.IfExp):
            self.evaluate(node.test)
            return _union([self.evaluate(node.body), self.evaluate(node.orelse)])
        if isinstance(node, ast.JoinedStr):
            return _union([self.evaluate(v) for v in node.values])
        if isinstance(node, ast.FormattedValue):
            return self.evaluate(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _union([self.evaluate(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            return _union([self.evaluate(k) for k in node.keys if k is not None]
                          + [self.evaluate(v) for v in node.values])
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node, [node.key, node.value])
        if isinstance(node, ast.Starred):
            return self.evaluate(node.value)
        if isinstance(node, ast.Await):
            return self.evaluate(node.value)
        if isinstance(node, ast.Slice):
            return _union([self.evaluate(node.lower), self.evaluate(node.upper),
                           self.evaluate(node.step)])
        if isinstance(node, ast.NamedExpr):
            val = self.evaluate(node.value)
            self._bind_name(node.target.id, val, node.value)
            return val
        if isinstance(node, ast.Lambda):
            return _EMPTY
        return _EMPTY

    def _eval_name(self, node: ast.Name) -> TaintVal:
        resolved = self.resolver.aliases.get(node.id)
        if resolved == "os.environ":
            return (frozenset({KIND_ENV}), frozenset(), frozenset())
        if node.id in self.taint:
            return self.taint[node.id]
        if node.id in self.params:
            return (frozenset(), frozenset(), frozenset({node.id}))
        return _EMPTY

    def _eval_attribute(self, node: ast.Attribute) -> TaintVal:
        dotted = self.resolver.resolve(node)
        if dotted is not None:
            if dotted == "os.environ" or dotted.startswith("os.environ."):
                return (frozenset({KIND_ENV}), frozenset(), frozenset())
            if dotted.startswith("self.") and dotted.count(".") == 1:
                # ``self.x`` reads the pseudo-variable bound by an
                # earlier ``self.x = ...`` in this same function.
                return self.taint.get(dotted, _EMPTY)
        return self.evaluate(node.value)

    def _eval_comprehension(
        self, node: ast.AST, result_exprs: Sequence[ast.AST]
    ) -> TaintVal:
        saved = dict(self.taint)
        order_tainted = False
        for gen in node.generators:
            val = self._iter_taint(gen.iter)
            order_tainted = order_tainted or self._is_set_expr(gen.iter)
            # Comprehension targets have their own scope: bind fresh so
            # a same-named outer variable cannot bleed taint in.
            for name in _target_names(gen.target):
                self.taint[name] = _EMPTY
            self._bind_target(gen.target, val, gen.iter)
            for cond in gen.ifs:
                self.evaluate(cond)
        result = _union([self.evaluate(e) for e in result_exprs])
        if order_tainted and not isinstance(node, (ast.SetComp, ast.DictComp)):
            result = _union([
                result, (frozenset({KIND_SETORDER}), frozenset(), frozenset()),
            ])
        self.taint = saved
        return result

    def _eval_call(self, node: ast.Call) -> TaintVal:
        target = self.encode_target(node.func)
        basename = target.rsplit(".", 1)[-1]
        arg_vals = [self.evaluate(a) for a in node.args]
        kw_vals: Dict[str, TaintVal] = {}
        splat_vals: List[TaintVal] = []
        for kw in node.keywords:
            if kw.arg is None:
                splat_vals.append(self.evaluate(kw.value))
            else:
                kw_vals[kw.arg] = self.evaluate(kw.value)

        source_kind = _classify_source(
            target, bool(node.args or node.keywords)
        )
        if source_kind is not None:
            return (frozenset({source_kind}), frozenset(), frozenset())

        result = _union(arg_vals + list(kw_vals.values()) + splat_vals)
        if basename in _SETORDER_SANITIZERS:
            result = (result[0] - {KIND_SETORDER}, result[1], result[2])
        elif basename in _ORDER_MATERIALIZERS or basename == "join":
            if any(self._is_set_expr(a) for a in node.args):
                result = _union([
                    result,
                    (frozenset({KIND_SETORDER}), frozenset(), frozenset()),
                ])
        if self._trackable(target):
            result = (result[0], result[1] | {target}, result[2])

        if self.recording:
            self._record_call(node, target, basename, arg_vals, kw_vals)
        return result

    # -- call-site / sink recording (final pass only) -------------------
    @staticmethod
    def _triple(val: TaintVal) -> Tuple[List[str], List[str], List[str]]:
        return (sorted(val[0]), sorted(val[1]), sorted(val[2]))

    def _flow(
        self, kind: str, detail: str, node: ast.AST, val: TaintVal
    ) -> None:
        if _is_empty(val):
            return
        self.sink_flows.append(SinkFlow(
            kind=kind, detail=detail,
            line=node.lineno, col=node.col_offset + 1,
            direct=sorted(val[0]), calls=sorted(val[1]), params=sorted(val[2]),
        ))

    def _record_call(
        self,
        node: ast.Call,
        target: str,
        basename: str,
        arg_vals: Sequence[TaintVal],
        kw_vals: Dict[str, TaintVal],
    ) -> None:
        if self._trackable(target):
            self.call_sites.append(CallSite(
                target=target,
                line=node.lineno, col=node.col_offset + 1,
                args=[self._triple(v) for v in arg_vals],
                kwargs={k: self._triple(v) for k, v in sorted(kw_vals.items())},
            ))

        display = target[len(UNRESOLVED):] if target.startswith(UNRESOLVED) \
            else basename
        for kw in node.keywords:
            if kw.arg in _SEED_KWARGS:
                self._flow(
                    "seed", f"{display}({kw.arg}=...)", node,
                    kw_vals[kw.arg],
                )
        if basename in _SEED_FNS:
            for i, val in enumerate(arg_vals):
                self._flow("seed", f"{basename}() argument {i + 1}", node, val)
        if basename in _KEY_FNS or basename.endswith("_job_key"):
            for i, val in enumerate(arg_vals):
                self._flow("key", f"{basename}() argument {i + 1}", node, val)
        if target.startswith("hashlib."):
            for val in arg_vals:
                self._flow("key", f"{target}() digest input", node, val)
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "record":
                receiver = self.resolver.resolve(func.value) or ""
                if "journal" in receiver.lower():
                    for i, val in enumerate(arg_vals):
                        self._flow(
                            "journal", f"{receiver}.record() argument {i + 1}",
                            node, val,
                        )
            elif func.attr == "emit" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    for kw in node.keywords:
                        if kw.arg is not None:
                            self._flow(
                                "emit",
                                f'emit("{first.value}", {kw.arg}=...) payload',
                                node, kw_vals[kw.arg],
                            )

    # -- statement execution --------------------------------------------
    def _bind_name(
        self, name: str, val: TaintVal, value_node: Optional[ast.AST]
    ) -> None:
        self.taint[name] = _union([self.taint.get(name, _EMPTY), val])
        if value_node is not None and self._is_set_expr(value_node):
            self.set_vars.add(name)

    def _bind_target(
        self, target: ast.AST, val: TaintVal, value_node: Optional[ast.AST]
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(target.id, val, value_node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, val, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, val, None)
        elif isinstance(target, ast.Attribute):
            dotted = self.resolver.resolve(target)
            if dotted is not None and dotted.startswith("self.") \
                    and dotted.count(".") == 1:
                self.taint[dotted] = _union([
                    self.taint.get(dotted, _EMPTY), val,
                ])
        elif isinstance(target, ast.Subscript):
            self.evaluate(target.value)
            self.evaluate(target.slice)

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self.evaluate(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(
                    stmt.target, self.evaluate(stmt.value), stmt.value,
                )
            ann = ast.unparse(stmt.annotation)
            if isinstance(stmt.target, ast.Name) and re.search(
                r"\b(Set|FrozenSet|set|frozenset)\b", ann
            ):
                self.set_vars.add(stmt.target.id)
        elif isinstance(stmt, ast.AugAssign):
            self._bind_target(stmt.target, self.evaluate(stmt.value), None)
        elif isinstance(stmt, ast.Return):
            val = self.evaluate(stmt.value)
            if self.recording:
                self.return_val = _union([self.return_val, val])
        elif isinstance(stmt, ast.Expr):
            self.evaluate(stmt.value)
        elif isinstance(stmt, ast.If):
            self.evaluate(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            val = self._iter_taint(stmt.iter)
            self._bind_target(stmt.target, val, None)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.evaluate(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self.evaluate(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, val, None)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            self.evaluate(stmt.exc)
            self.evaluate(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self.evaluate(stmt.test)
            self.evaluate(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.evaluate(target)
        elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            self.evaluate(stmt.subject)
            for case in stmt.cases:
                self.exec_block(case.body)
        # Nested defs/classes, imports, pass/break/continue: no dataflow.


def analyze_function(
    node: ast.AST,
    qualname: str,
    module: str,
    cls: Optional[str],
    resolver: ImportResolver,
    local_names: FrozenSet[str],
    synthetic_name: Optional[str] = None,
) -> FunctionInfo:
    """Run the intra-function pass and package a :class:`FunctionInfo`."""
    params: List[str] = []
    returns_ann: Optional[str] = None
    line = getattr(node, "lineno", 1)
    name = synthetic_name or getattr(node, "name", "<module>")
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raw = (
            list(node.args.posonlyargs) + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
        is_static = any(
            isinstance(dec, ast.Name) and dec.id == "staticmethod"
            for dec in node.decorator_list
        )
        names = [a.arg for a in raw]
        if cls is not None and not is_static and names \
                and names[0] in ("self", "cls"):
            names = names[1:]
        if node.args.vararg is not None:
            names.append(node.args.vararg.arg)
        if node.args.kwarg is not None:
            names.append(node.args.kwarg.arg)
        params = names
        if node.returns is not None:
            returns_ann = ast.unparse(node.returns)
    analyzer = _FunctionAnalyzer(
        qualname, module, cls, resolver, local_names, params,
    )
    body = list(getattr(node, "body", []))
    for pass_index in range(analyzer.PASSES):
        analyzer.recording = pass_index == analyzer.PASSES - 1
        analyzer.exec_block(body)
    kinds, calls, ret_params = analyzer.return_val
    return FunctionInfo(
        qualname=qualname, name=name, module=module, cls=cls,
        params=params, line=line,
        return_taint=sorted(kinds),
        return_calls=sorted(calls),
        return_params=sorted(ret_params),
        sink_flows=analyzer.sink_flows,
        call_sites=analyzer.call_sites,
        returns_ann=returns_ann,
    )


# ----------------------------------------------------------------------
# Whole-program taint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaintFinding:
    """One tainted value reaching a determinism sink, with a witness."""

    source: str             #: taint kind (wallclock | rng | env | setorder)
    sink: str               #: sink family (seed | key | journal | emit)
    detail: str             #: sink description for the message
    chain: Tuple[str, ...]  #: function path from here to the sink/source
    module: str
    line: int
    col: int

    def message(self) -> str:
        via = ""
        if self.chain:
            hops = " -> ".join(f"{q.rsplit('.', 1)[-1]}()" for q in self.chain)
            via = f" (via {hops})"
        return (
            f"value derived from {KIND_DESC[self.source]} flows into "
            f"{self.detail}{via}"
        )


#: A sink reachable from a parameter: (sink kind, detail, callee chain).
_ParamSink = Tuple[str, str, Tuple[str, ...]]


class TaintAnalysis:
    """Closes per-function taint summaries over the call graph."""

    #: Witness-chain length cap; recursion cannot loop past this.
    MAX_CHAIN = 8

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.returns: Dict[str, FrozenSet[str]] = self._close_returns()
        self.param_sinks: Dict[Tuple[str, str], Dict[Tuple[str, str], Tuple[str, ...]]] = (
            self._close_param_sinks()
        )

    # -- fixpoints ------------------------------------------------------
    def _close_returns(self) -> Dict[str, FrozenSet[str]]:
        returns = {
            qual: frozenset(info.return_taint)
            for qual, info in self.graph.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qual in sorted(self.graph.functions):
                info = self.graph.functions[qual]
                merged = returns[qual]
                for target in info.return_calls:
                    resolved = self.graph.resolve(target, info)
                    if resolved is not None:
                        merged = merged | returns[resolved]
                if merged != returns[qual]:
                    returns[qual] = merged
                    changed = True
        return returns

    def _mapped_args(
        self, site: CallSite, callee: FunctionInfo
    ) -> List[Tuple[str, Tuple[List[str], List[str], List[str]]]]:
        """(callee param, taint triple) pairs for a resolved call site."""
        mapped = []
        for i, triple in enumerate(site.args):
            if i < len(callee.params):
                mapped.append((callee.params[i], triple))
        for kw_name, triple in sorted(site.kwargs.items()):
            if kw_name in callee.params:
                mapped.append((kw_name, triple))
        return mapped

    def _close_param_sinks(
        self,
    ) -> Dict[Tuple[str, str], Dict[Tuple[str, str], Tuple[str, ...]]]:
        sinks: Dict[Tuple[str, str], Dict[Tuple[str, str], Tuple[str, ...]]] = {}
        for qual in sorted(self.graph.functions):
            info = self.graph.functions[qual]
            for flow in info.sink_flows:
                for param in flow.params:
                    entry = sinks.setdefault((qual, param), {})
                    entry.setdefault((flow.kind, flow.detail), (qual,))
        changed = True
        while changed:
            changed = False
            for qual in sorted(self.graph.functions):
                info = self.graph.functions[qual]
                for site in info.call_sites:
                    callee_qual = self.graph.resolve(site.target, info)
                    if callee_qual is None:
                        continue
                    callee = self.graph.functions[callee_qual]
                    for callee_param, triple in self._mapped_args(site, callee):
                        reachable = sinks.get((callee_qual, callee_param))
                        if not reachable:
                            continue
                        for own_param in triple[2]:
                            entry = sinks.setdefault((qual, own_param), {})
                            for key, chain in reachable.items():
                                if key in entry:
                                    continue
                                if len(chain) >= self.MAX_CHAIN:
                                    continue
                                entry[key] = (qual,) + chain
                                changed = True
        return sinks

    # -- witnesses ------------------------------------------------------
    def _return_chain(self, start: str, kind: str) -> Tuple[str, ...]:
        """Call path from ``start`` down to the function sourcing ``kind``."""
        chain = [start]
        current = start
        for _ in range(self.MAX_CHAIN):
            info = self.graph.functions[current]
            if kind in info.return_taint:
                break
            advanced = False
            for target in sorted(set(info.return_calls)):
                resolved = self.graph.resolve(target, info)
                if resolved is not None and kind in self.returns[resolved]:
                    chain.append(resolved)
                    current = resolved
                    advanced = True
                    break
            if not advanced:
                break
        return tuple(chain)

    def _resolve_kinds(
        self,
        direct: Sequence[str],
        calls: Sequence[str],
        caller: FunctionInfo,
    ) -> Dict[str, Tuple[str, ...]]:
        """kind -> witness chain for a recorded taint triple."""
        out: Dict[str, Tuple[str, ...]] = {kind: () for kind in direct}
        for target in sorted(set(calls)):
            resolved = self.graph.resolve(target, caller)
            if resolved is None:
                continue
            for kind in sorted(self.returns[resolved]):
                if kind not in out:
                    out[kind] = self._return_chain(resolved, kind)
        return out

    # -- findings -------------------------------------------------------
    def findings(self) -> List[TaintFinding]:
        out: List[TaintFinding] = []
        seen: Set[Tuple[str, int, str, str]] = set()

        def add(finding: TaintFinding) -> None:
            key = (finding.module, finding.line, finding.source, finding.sink)
            if key not in seen:
                seen.add(key)
                out.append(finding)

        for qual in sorted(self.graph.functions):
            info = self.graph.functions[qual]
            for flow in info.sink_flows:
                for kind, chain in sorted(
                    self._resolve_kinds(flow.direct, flow.calls, info).items()
                ):
                    add(TaintFinding(
                        source=kind, sink=flow.kind, detail=flow.detail,
                        chain=chain, module=info.module,
                        line=flow.line, col=flow.col,
                    ))
        # Param-mediated flows: tainted values entering a call whose
        # parameter transitively reaches a sink.  Reported at the call
        # site where the taint enters the chain.
        for qual in sorted(self.graph.functions):
            info = self.graph.functions[qual]
            for site in info.call_sites:
                callee_qual = self.graph.resolve(site.target, info)
                if callee_qual is None:
                    continue
                callee = self.graph.functions[callee_qual]
                for callee_param, triple in self._mapped_args(site, callee):
                    reachable = self.param_sinks.get((callee_qual, callee_param))
                    if not reachable:
                        continue
                    kinds = self._resolve_kinds(triple[0], triple[1], info)
                    for kind in sorted(kinds):
                        for (sink_kind, detail), chain in sorted(
                            reachable.items()
                        ):
                            add(TaintFinding(
                                source=kind, sink=sink_kind, detail=detail,
                                chain=chain, module=info.module,
                                line=site.line, col=site.col,
                            ))
        out.sort(key=lambda f: (f.module, f.line, f.col, f.source, f.sink))
        return out


# ----------------------------------------------------------------------
# Pickle-boundary escape analysis
# ----------------------------------------------------------------------
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

    def __init__(self, resolver: ImportResolver, assignments: Dict[str, ast.AST]):
        self.resolver = resolver
        self.assignments = assignments

    def resolve(self, expr: ast.AST, depth: int = 0) -> Tuple[List[str], List[str]]:
        classes: List[str] = []
        factories: List[str] = []
        if depth > 4:
            return classes, factories
        if isinstance(expr, ast.Call):
            dotted = self.resolver.resolve(expr.func) or ""
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


def extract_submit_sites(tree: ast.AST, module: str) -> List[SubmitSite]:
    resolver = ImportResolver(tree, module)
    # Last simple assignment per name (function-scope precision is not
    # needed: payload variables are rarely shadowed across functions in
    # one module, and a wrong guess only adds a *checked* class).
    assignments: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            assignments[node.targets[0].id] = node.value
    payload_resolver = _PayloadResolver(resolver, assignments)

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
        functions: Dict[str, FunctionInfo],
    ) -> None:
        self.by_qualname: Dict[str, ClassShape] = {}
        self.by_name: Dict[str, List[ClassShape]] = {}
        for shape in sorted(classes, key=lambda s: s.qualname):
            self.by_qualname[shape.qualname] = shape
            self.by_name.setdefault(shape.name, []).append(shape)
        self.submit_sites = sorted(
            submit_sites, key=lambda s: (s.module, s.line, s.col),
        )
        self.functions = functions

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
            info = self.functions.get(factory)
            if info is None or not info.returns_ann:
                continue
            for token in annotation_tokens(info.returns_ann):
                shape = self._lookup(token, info.module)
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
