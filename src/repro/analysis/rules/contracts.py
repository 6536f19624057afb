"""Contract rules: cross-file agreements that must never drift.

The simulator's instrumentation bus declares its topics and their
fields in ``repro.sim.bus``, and ``Simulator.on`` rejects a subscriber
that does not match them.  ``emit()`` itself is unchecked, to stay
free when nobody listens, so a typo in an emit topic or its gate does
not fail loudly — the subscribed checker just never fires and
validation silently loses coverage.  Likewise the result cache trusts
``SCHEMA_VERSION`` to change whenever ``SessionResult`` changes shape,
and the parallel fabric trusts every shipped callable to survive
pickling.  These rules make each of those handshakes checkable at lint
time:

========  ==========================================================
REP201    a subscribed topic has no emit() site anywhere (dead checker)
REP202    an emitted topic is a near-miss of a subscribed topic (typo),
          or an ``if "<t>" in sim.topics:`` gate names a topic nothing
          emits or guards an emit of a different topic
REP203    emit() with a non-literal topic (defeats static checking)
REP204    SessionResult shape changed without a SCHEMA_FINGERPRINT /
          SCHEMA_VERSION bump
REP205    lambda / nested closure handed to the parallel fabric
          (unpicklable in worker processes)
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from ..engine import Finding, ProjectRule, Rule, SourceFile
from ..project import ProjectIndex, session_result_fingerprint


def _edit_distance(a: str, b: str, limit: int = 3) -> int:
    """Levenshtein distance, capped at ``limit`` for early exit."""
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            )
            current.append(cost)
            best = min(best, cost)
        if best > limit:
            return limit + 1
        previous = current
    return previous[-1]


# ----------------------------------------------------------------------
class OrphanSubscriptionRule(ProjectRule):
    """REP201: subscriptions to topics nothing emits."""

    id = "REP201"
    title = "subscription to a topic with no emitter"
    rationale = (
        "A checker subscribed to a topic no code emits can never fire; "
        "the validation it implements is silently gone.  Emitter and "
        "subscriber topic strings must match exactly."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        emitted = set(index.emitted_topics)
        has_dynamic = bool(index.dynamic_topics)
        for topic, sites in sorted(index.subscribed_topics.items()):
            if topic in emitted:
                continue
            for site in sites:
                hint = ""
                near = _nearest(topic, emitted)
                if near is not None:
                    hint = f" (did you mean {near!r}?)"
                if has_dynamic:
                    hint += " (note: dynamic emit topics exist and were not checked)"
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=site.path, line=site.line, col=site.col,
                    message=(
                        f"subscribed topic {topic!r} is never emitted — "
                        f"the handler can never fire{hint}"
                    ),
                )


class TopicNearMissRule(ProjectRule):
    """REP202: emit topics and emit gates that miss their counterpart."""

    id = "REP202"
    title = "emit topic or emit gate does not match its counterpart"
    rationale = (
        "An emit site whose topic differs from a subscribed topic by a "
        "character or two is almost certainly a typo: the subscriber "
        "keeps matching other emit sites, so nothing fails at runtime — "
        "events from this site just vanish.  The same holds for the "
        "per-topic gate in front of an emit: a gate string no emit "
        "publishes, or one naming a topic other than the emit it "
        "guards, switches that emit off (or on) for the wrong "
        "subscribers, silently."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        subscribed = set(index.subscribed_topics)
        for topic, sites in sorted(index.emitted_topics.items()):
            if topic in subscribed:
                continue
            near = _nearest(topic, subscribed, limit=2)
            if near is None:
                continue  # a genuinely unsubscribed topic is fine
            for site in sites:
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=site.path, line=site.line, col=site.col,
                    message=(
                        f"emitted topic {topic!r} looks like a typo of "
                        f"subscribed topic {near!r} — events from this "
                        "site reach no subscriber"
                    ),
                )
        emitted = set(index.emitted_topics)
        for gate in index.gates:
            if gate.topic not in emitted:
                near = _nearest(gate.topic, emitted, limit=2)
                hint = f" (did you mean {near!r}?)" if near else ""
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=gate.path, line=gate.line, col=gate.col,
                    message=(
                        f"emit gate tests {gate.topic!r} but no emit() "
                        f"publishes that topic{hint}"
                    ),
                )
            for site in gate.stray_emits:
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=site.path, line=site.line, col=site.col,
                    message=(
                        f"emit of {site.topic!r} is gated on "
                        f"{gate.topic!r} (line {gate.line}) — it fires "
                        f"only while {gate.topic!r} has a subscriber"
                    ),
                )


def _nearest(
    topic: str, candidates: Set[str], limit: int = 2
) -> Optional[str]:
    best: Optional[Tuple[int, str]] = None
    for candidate in sorted(candidates):
        distance = _edit_distance(topic, candidate, limit=limit)
        if distance <= limit and (best is None or distance < best[0]):
            best = (distance, candidate)
    return best[1] if best else None


class DynamicTopicRule(ProjectRule):
    """REP203: emit() with a computed topic string."""

    id = "REP203"
    title = "dynamic emit topic"
    rationale = (
        "A computed topic cannot be cross-checked against the "
        "subscriber registry; every topic must be a string literal at "
        "the emit site."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        for site in index.dynamic_topics:
            yield Finding(
                rule=self.id, severity=self.severity,
                path=site.path, line=site.line, col=site.col,
                message=(
                    "emit() topic is not a string literal — static "
                    "emitter/subscriber cross-checking is impossible here"
                ),
            )


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
    OrphanSubscriptionRule,
    TopicNearMissRule,
    DynamicTopicRule,
    SchemaFingerprintRule,
    FabricPickleRule,
)
