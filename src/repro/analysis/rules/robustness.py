"""Robustness rules: exception-handling hygiene in the fabric.

The experiment fabric (``experiments/``) and the chaos subsystem
(``faults/``) are exactly the layers whose job is to *handle* failure —
so a handler there that silently eats an exception defeats the whole
design: a swallowed worker crash looks like a hang, a swallowed cache
error looks like a miss forever, and a swallowed checker bug looks like
a clean validation run.

========  ==========================================================
REP109    bare ``except:`` or a handler that silently swallows the
          exception (body is only ``pass``/``...``/``continue``)
REP110    ad-hoc ABR controller instantiation in ``experiments/``
          (bypasses the arena policy registry)
REP111    direct write-mode ``open()``/``write_bytes``/``write_text``
          in a persistence scope (bypasses ``repro.storage``)
========  ==========================================================

Deliberate suppression is still expressible — and greppable as policy:
``contextlib.suppress(SomeError)`` names what is being ignored, a
handler that counts/logs/reports before continuing has a non-empty
body, and a true exemption carries ``# repro: noqa[REP109]``.

REP110 guards a different invariant of the same flavour: the arena
leaderboard is only comparable because every entrant is constructed
through :func:`repro.arena.policies.build_policy`, whose registry
fingerprint is folded into each job's content address.  An experiment
that calls ``MemoryAwareAbr()`` directly produces sessions whose policy
identity is invisible to the cache, the journal, and the artifact.
Passing the *class* (a factory) into a spec is fine — only call sites
are flagged — and a deliberate exception carries
``# repro: noqa[REP110]``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Optional, Tuple

from ..engine import Finding, Rule, SourceFile

#: The failure-handling layers held to the stricter standard.
ROBUSTNESS_SCOPE: FrozenSet[str] = frozenset({"experiments", "faults"})


class SwallowedExceptionRule(Rule):
    """REP109: bare or silently-swallowed exception handlers."""

    id = "REP109"
    title = "bare or silently-swallowed exception handler"
    rationale = (
        "In the fault-tolerance layers an invisible failure is worse "
        "than a loud one: retries, quarantine, and checkpointing all "
        "key off exceptions being observed.  Name the exceptions you "
        "catch, and record (counter, warning, report) or re-raise what "
        "you cannot handle; use contextlib.suppress for the rare "
        "ignore-by-design case so the policy is explicit."
    )
    scope = ROBUSTNESS_SCOPE

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    src, node,
                    "bare `except:` also catches SystemExit and "
                    "KeyboardInterrupt — name the exceptions (and "
                    "re-raise what the fabric cannot handle)",
                )
                continue
            if self._swallows(node.body):
                caught = ast.unparse(node.type)
                yield self.finding(
                    src, node,
                    f"`except {caught}` silently swallows the failure "
                    "(empty handler body) — count/log/report it, "
                    "re-raise, or use contextlib.suppress to make the "
                    "ignore explicit",
                )

    @staticmethod
    def _swallows(body: Iterable[ast.stmt]) -> bool:
        """True when every statement is pass/Ellipsis/continue — i.e.
        the handler observes nothing and records nothing."""
        empty = True
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            ):
                continue
            empty = False
        return empty


#: Controller classes shipped by :mod:`repro.core.abr`.  Instantiating
#: one of these by name inside ``experiments/`` sidesteps the arena
#: registry; go through ``repro.arena.policies.build_policy`` instead.
ABR_CONTROLLER_NAMES: FrozenSet[str] = frozenset({
    "FixedAbr",
    "RateBasedAbr",
    "BufferBasedAbr",
    "BolaAbr",
    "HybridAbr",
    "MemoryAwareAbr",
})


class AdHocPolicyRule(Rule):
    """REP110: ABR controllers constructed outside the policy registry."""

    id = "REP110"
    title = "ad-hoc ABR policy instantiation"
    rationale = (
        "Arena results are content-addressed by policy name + registry "
        "revision; a controller instantiated directly in an experiment "
        "has no such identity, so its sessions cannot be cached, "
        "resumed, or compared on the leaderboard.  Build controllers "
        "with repro.arena.policies.build_policy('<name>') (or pass the "
        "class as a factory into a SessionSpec, which is not a call)."
    )
    scope = frozenset({"experiments"})

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._callee_name(node.func)
            if name in ABR_CONTROLLER_NAMES:
                yield self.finding(
                    src, node,
                    f"`{name}(...)` constructs an ABR controller ad hoc "
                    "— use repro.arena.policies.build_policy so the "
                    "policy's registry identity reaches the cache and "
                    "the leaderboard",
                )

    @staticmethod
    def _callee_name(func: ast.expr) -> str:
        """The called name: ``Foo()`` and ``module.Foo()`` both -> Foo."""
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""


#: Packages whose on-disk artifacts must go through :mod:`repro.storage`
#: (atomic publish + checksum envelope).  ``storage`` itself and the
#: fault/chaos layers are deliberately out of scope: storage *is* the
#: publish path, and chaos writes throwaway scratch files.
PERSISTENCE_SCOPE: FrozenSet[str] = frozenset({
    "experiments", "trace", "analysis", "study", "arena",
})

#: Stdlib modules whose ``open``-like callables take ``(path, mode)``.
_OPENER_MODULES: FrozenSet[str] = frozenset({
    "os", "io", "gzip", "bz2", "lzma", "codecs",
})

#: Characters in a mode string that mean the handle can mutate the file.
_WRITE_MODE_CHARS = frozenset("wax+")


class DirectArtifactWriteRule(Rule):
    """REP111: artifact writes that bypass the durability layer."""

    id = "REP111"
    title = "direct artifact write bypasses repro.storage"
    rationale = (
        "Every persisted artifact in the persistence scopes must go "
        "through repro.storage (publish_via/publish_bytes, sealing a "
        "checksum envelope): a bare open('w')/write_bytes/write_text "
        "publish is "
        "non-atomic (a crash leaves a torn file the next run trusts), "
        "unfsynced, and invisible to `repro fsck`.  Route the write "
        "through the storage layer, or carry # repro: noqa[REP111] "
        "with a comment explaining why durability does not apply."
    )
    scope = PERSISTENCE_SCOPE

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "write_bytes", "write_text"
            ):
                yield self.finding(
                    src, node,
                    f"`.{func.attr}(...)` publishes an artifact "
                    "non-atomically — use repro.storage.publish_bytes "
                    "(atomic tmp+fsync+rename, checksum envelope)",
                )
                continue
            mode = self._write_mode(node)
            if mode is not None:
                yield self.finding(
                    src, node,
                    f"write-mode open ({mode!r}) publishes an artifact "
                    "non-atomically — use repro.storage.publish_via / "
                    "open_journal so a crash cannot leave a torn file",
                )

    @classmethod
    def _write_mode(cls, node: ast.Call) -> Optional[str]:
        """The write-capable mode string of an open-style call, or None.

        Recognizes ``open(p, "w")``, ``gzip.open(p, "wb")`` (and the
        other :data:`_OPENER_MODULES`), ``os.fdopen(fd, "w")``, and
        method-style ``path.open("w")``.  A non-literal mode is skipped:
        the rule stays precise rather than guessing.
        """
        func = node.func
        if isinstance(func, ast.Name):
            if func.id != "open":
                return None
            mode_index = 1
        elif isinstance(func, ast.Attribute):
            is_module_opener = (
                isinstance(func.value, ast.Name)
                and func.value.id in _OPENER_MODULES
                and func.attr in ("open", "fdopen")
            )
            if is_module_opener:
                mode_index = 1
            elif func.attr == "open":
                mode_index = 0  # pathlib-style: path.open("w")
            else:
                return None
        else:
            return None
        mode = cls._mode_argument(node, mode_index)
        if mode is not None and _WRITE_MODE_CHARS & set(mode):
            return mode
        return None

    @staticmethod
    def _mode_argument(node: ast.Call, index: int) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                value = keyword.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return value.value
                return None
        if len(node.args) > index:
            value = node.args[index]
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return value.value
        return None


ROBUSTNESS_RULES: Tuple[type, ...] = (
    SwallowedExceptionRule, AdHocPolicyRule, DirectArtifactWriteRule,
)
