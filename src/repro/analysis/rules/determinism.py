"""Determinism rules: constructs that break bit-identical replay.

Everything the reproduction claims — serial/parallel equivalence,
golden-trace digests, cache hits standing in for live runs — holds only
while a session's trajectory is a pure function of its
:class:`~repro.experiments.parallel.SessionSpec`.  These rules ban the
constructs that quietly break that purity.  REP101, REP102 and REP104
flag a wall clock, an unseeded draw or a set-order loop at its own line
in every package whose values can reach a seed, a cache or trace key, a
journal or an emit payload; the rest police the simulation core
(``sim``, ``kernel``, ``sched``, ``video``, ``workload``, ``device``,
``core``, ``trace``):

========  ==========================================================
REP101    wall-clock reads (``time.time``, ``datetime.now``, ...)
REP102    unseeded randomness: module-level ``random``/``numpy.random``
          draws, OS entropy, unseeded ``Random()``/``default_rng()``
REP103    builtin ``hash()`` (salted per process via PYTHONHASHSEED)
REP104    iteration over a ``set``/``frozenset`` (arbitrary order)
REP105    ``id()``-based ordering or tie-breaking (address-dependent)
REP106    float ``==``/``!=`` against float literals in invariant code
REP108    hand-rolled self-rescheduling poll loop (use PeriodicService)
========  ==========================================================

``benchmarks/`` is intentionally outside every scope: wall-clock timing
is the whole point there.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..engine import Finding, ImportMap, Rule, SourceFile, iter_calls

#: The deterministic core: packages whose code runs inside a simulation.
#: ``trace`` joined when the store/replay layer landed: a recorder or
#: replayed trace feeding nondeterminism into analysis would silently
#: break the live-vs-replay bit-identity contract.
DETERMINISM_SCOPE: FrozenSet[str] = frozenset(
    {"sim", "kernel", "sched", "video", "workload", "device", "core", "trace"}
)

#: Where REP101/REP102/REP104 flag their sources: every ``repro``
#: package plus the top-level modules (``""``).  ``analysis`` is left
#: out: the linter hashes files and findings, never simulation state.
#: Spelled out so that a fixture or vendored tree with another package
#: name stays outside it.
SOURCE_SCOPE: FrozenSet[str] = frozenset({
    "", "arena", "core", "device", "experiments", "faults", "kernel",
    "sched", "sim", "storage", "study", "trace", "validate", "video",
    "workload",
})

#: Invariant code additionally covered by the float-equality rule.
INVARIANT_SCOPE: FrozenSet[str] = DETERMINISM_SCOPE | {"validate", "experiments"}


# ----------------------------------------------------------------------
class WallClockRule(Rule):
    """REP101: wall-clock reads."""

    id = "REP101"
    title = "wall-clock read"
    rationale = (
        "Simulated time comes from Simulator.now; reading the host clock "
        "makes a run depend on machine load and breaks replay, and a "
        "seed, key or record derived from it differs on every run."
    )
    scope = SOURCE_SCOPE

    BANNED: FrozenSet[str] = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
        "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        imports = ImportMap(src.tree, src.rel)
        for call in iter_calls(src.tree):
            dotted = imports.resolve(call.func)
            if dotted in self.BANNED:
                yield self.finding(
                    src, call,
                    f"wall-clock call {dotted}() — use the simulator clock "
                    "(sim.now) or take timestamps at the experiment boundary",
                )


# ----------------------------------------------------------------------
class ModuleRandomRule(Rule):
    """REP102: randomness not derived from the run's seed."""

    id = "REP102"
    title = "unseeded random draw"
    rationale = (
        "The global random and numpy.random modules share one "
        "process-wide state: any draw order change (or another import "
        "drawing first) perturbs every later value, and OS entropy or an "
        "unseeded generator never replays.  All randomness must come "
        "from named sim.random streams (repro.sim.rng.RandomStreams) or "
        "a generator seeded from the run's master seed."
    )
    scope = SOURCE_SCOPE

    DRAW_FNS: FrozenSet[str] = frozenset({
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "triangular",
        "paretovariate", "vonmisesvariate", "weibullvariate", "getrandbits",
        "randbytes", "seed", "binomialvariate",
    })

    #: Draws from numpy's process-global legacy generator.
    NUMPY_DRAW_FNS: FrozenSet[str] = frozenset({
        "random", "rand", "randn", "randint", "normal", "uniform",
        "choice", "shuffle", "permutation", "exponential", "poisson",
    })

    #: Calls that read the OS entropy pool.
    ENTROPY_CALLS: FrozenSet[str] = frozenset({
        "random.SystemRandom", "os.urandom", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "secrets.randbelow", "secrets.randbits", "secrets.choice",
        "secrets.SystemRandom",
    })

    #: Generator constructors that seed themselves from the OS when
    #: called without a seed.
    SEEDABLE: FrozenSet[str] = frozenset({
        "random.Random", "numpy.random.default_rng",
    })

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        imports = ImportMap(src.tree, src.rel)
        for call in iter_calls(src.tree):
            dotted = imports.resolve(call.func)
            if dotted is None:
                continue
            module, _, name = dotted.rpartition(".")
            if dotted in self.ENTROPY_CALLS:
                yield self.finding(
                    src, call,
                    f"{dotted}() draws from the OS entropy pool and can "
                    "never replay — use a seeded named stream",
                )
            elif dotted in self.SEEDABLE:
                if not call.args and not call.keywords:
                    yield self.finding(
                        src, call,
                        f"unseeded {dotted}() seeds itself from the OS — "
                        "pass a seed derived from the run's master seed",
                    )
            elif (module == "random" and name in self.DRAW_FNS) or (
                module == "numpy.random" and name in self.NUMPY_DRAW_FNS
            ):
                yield self.finding(
                    src, call,
                    f"module-level {dotted}() shares global RNG state — "
                    "draw from a named stream via sim.random.stream(name)",
                )


# ----------------------------------------------------------------------
class BuiltinHashRule(Rule):
    """REP103: builtin ``hash()`` in simulation code."""

    id = "REP103"
    title = "builtin hash() call"
    rationale = (
        "str/bytes hashes are salted per process (PYTHONHASHSEED), so "
        "anything derived from hash() differs between workers and runs. "
        "Use hashlib (as repro.sim.rng.derive_seed does) for stable "
        "digests."
    )
    scope = DETERMINISM_SCOPE

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for call in iter_calls(src.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "hash":
                yield self.finding(
                    src, call,
                    "builtin hash() is salted per process — use "
                    "hashlib.sha256 (see sim.rng.derive_seed) for a "
                    "stable digest",
                )


# ----------------------------------------------------------------------
class SetIterationRule(Rule):
    """REP104: iterating a set in code that feeds scheduling decisions."""

    id = "REP104"
    title = "iteration over an unordered set"
    rationale = (
        "Set iteration order depends on insertion history and on the "
        "per-process hash salt for str elements; feeding it into "
        "scheduling, victim selection, event enqueue, a key or a journal "
        "record makes runs diverge.  Wrap in sorted(...) or keep an "
        "explicit list."
    )
    scope = SOURCE_SCOPE

    #: Wrappers whose result is order-insensitive: iterating inside them
    #: is safe even when the operand is a set.
    ORDER_FREE_CALLS: FrozenSet[str] = frozenset({
        "sorted", "len", "sum", "min", "max", "any", "all", "set",
        "frozenset",
    })

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        set_names = _locally_bound_sets(src.tree)

        def unordered(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("set", "frozenset"):
                    return True
            if isinstance(node, ast.Name) and node.id in set_names:
                return True
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                return unordered(node.left) or unordered(node.right)
            return False

        findings: List[Finding] = []

        def flag(node: ast.AST, context: str) -> None:
            findings.append(self.finding(
                src, node,
                f"{context} iterates a set in arbitrary order — wrap in "
                "sorted(...) with an explicit key, or use a list",
            ))

        for node in ast.walk(src.tree):
            if isinstance(node, ast.For) and unordered(node.iter):
                flag(node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    # Building another set from a set is order-free.
                    if isinstance(node, ast.SetComp):
                        continue
                    if unordered(gen.iter):
                        flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else None
                if name in ("list", "tuple", "iter", "enumerate", "reversed"):
                    if node.args and unordered(node.args[0]):
                        flag(node.args[0], f"{name}()")
                elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
                    if node.args and unordered(node.args[0]):
                        flag(node.args[0], "str.join()")
            elif isinstance(node, ast.Starred) and unordered(node.value):
                flag(node.value, "unpacking")
        return findings


def _locally_bound_sets(tree: ast.AST) -> Set[str]:
    """Names assigned from an obvious set expression anywhere in the file.

    A coarse, suppressible heuristic: one-level dataflow is enough to
    catch ``victims = set(...) ... for v in victims`` without a type
    checker.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name) and _is_set_expr(value):
                names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name) and _is_set_expr(node.value):
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


# ----------------------------------------------------------------------
class IdOrderingRule(Rule):
    """REP105: ``id()`` in simulation code (address-dependent values)."""

    id = "REP105"
    title = "id()-derived value in simulation code"
    rationale = (
        "CPython object addresses differ between runs and workers; any "
        "ordering, tie-break, or key derived from id() is "
        "irreproducible.  Use a stable attribute (name, table index, "
        "sequence number) instead."
    )
    scope = DETERMINISM_SCOPE

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for call in iter_calls(src.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "id":
                yield self.finding(
                    src, call,
                    "id() yields a per-run object address — break ties "
                    "with a stable attribute (name, index, seq) instead",
                )


# ----------------------------------------------------------------------
class FloatEqualityRule(Rule):
    """REP106: exact float comparison against a float literal."""

    id = "REP106"
    title = "exact float equality in invariant code"
    rationale = (
        "Float accumulation order is part of the replay contract; an "
        "invariant written as x == 0.3 silently never fires (or fires "
        "spuriously) when a refactor reassociates the arithmetic.  "
        "Compare integers, use tolerances, or restructure the check."
    )
    scope = INVARIANT_SCOPE

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (left, right) in zip(
                node.ops, zip(operands, operands[1:])
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                literal = _float_literal(left) or _float_literal(right)
                if literal is not None:
                    yield self.finding(
                        src, node,
                        f"exact float comparison against {literal!r} — "
                        "use an integer representation, an inequality, "
                        "or an explicit tolerance",
                    )


# ----------------------------------------------------------------------
class SelfReschedulingLoopRule(Rule):
    """REP108: hand-rolled self-rescheduling periodic poll loop."""

    id = "REP108"
    title = "hand-rolled self-rescheduling poll loop"
    rationale = (
        "A callback that re-schedules itself with a period-like delay "
        "re-implements PeriodicService minus its guarantees: the stop "
        "contract, the double-arm guard, and the fixed re-arm position "
        "that keeps event sequence numbers (and therefore golden "
        "traces) stable.  Use repro.sim.PeriodicService instead."
    )
    scope = DETERMINISM_SCOPE | frozenset({"trace", "validate"})

    #: Delay identifiers that mark the call as periodic rather than a
    #: one-shot retry/backoff (which legitimately self-reschedules).
    PERIOD_NAME = re.compile(r"(?i)(?:^|_)(?:period|interval)s?(?:_|$)")

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        findings: List[Finding] = []
        self._visit_body(src, src.tree, enclosing=None, findings=findings)
        return findings

    def _visit_body(
        self,
        src: SourceFile,
        node: ast.AST,
        enclosing: Optional[str],
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit_body(src, child, child.name, findings)
            elif isinstance(child, (ast.ClassDef, ast.Lambda)):
                self._visit_body(src, child, None, findings)
            else:
                value = getattr(child, "value", None)
                if (
                    enclosing is not None
                    and isinstance(child, (ast.Expr, ast.Assign, ast.AnnAssign))
                    and isinstance(value, ast.Call)
                    and self._is_self_reschedule(value, enclosing)
                ):
                    findings.append(self.finding(
                        src, value,
                        f"{enclosing}() re-schedules itself with a "
                        "period-like delay — replace the hand-rolled loop "
                        "with repro.sim.PeriodicService",
                    ))
                self._visit_body(src, child, enclosing, findings)

    def _is_self_reschedule(self, call: ast.Call, enclosing: str) -> bool:
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "schedule"
            and len(call.args) >= 2
        ):
            return False
        callback = call.args[1]
        if isinstance(callback, ast.Attribute):
            callback_name: Optional[str] = callback.attr
        elif isinstance(callback, ast.Name):
            callback_name = callback.id
        else:
            callback_name = None
        if callback_name != enclosing:
            return False
        return any(
            self.PERIOD_NAME.search(name)
            for name in _mentioned_names(call.args[0])
        )


def _mentioned_names(node: ast.AST) -> Iterator[str]:
    """Every identifier mentioned anywhere in an expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _float_literal(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) is float
    ):
        return node.operand.value
    return None


DETERMINISM_RULES: Tuple[type, ...] = (
    WallClockRule,
    ModuleRandomRule,
    BuiltinHashRule,
    SetIterationRule,
    IdOrderingRule,
    FloatEqualityRule,
    SelfReschedulingLoopRule,
)
