"""Emit-bus payload schema inference.

The simulator's event bus is stringly typed: ``sim.emit("video.frame",
phase=..., pipeline=..., late=...)`` fans out to every subscriber as
``callback(time=now, **payload)``.  REP201–REP203 check *topic names*
across the project; this pass checks *payload shapes*:

* every literal-topic emit site contributes a shape — the set of keyword
  names it passes (plus whether it forwards ``**payload`` opaquely);
* every subscription is linked to its handler — a method
  (``sim.on("t", self._on_t)``), a module-level function, or an inline
  lambda — and the handler's *reads* are extracted: named parameters,
  ``payload.get("k")``, ``payload["k"]``, and ``"k" in payload``;
* the per-topic schema is the union of its emit-site shapes, against
  which each subscriber is type-checked (REP220 missing/unacceptable
  keys, REP221 dead keys no subscriber reads, REP222 phantom keys no
  emit site provides).

A handler that does anything else with its ``**kwargs`` (iterates it,
forwards it, stores it) is *opaque*: it reads everything, so dead-key
reasoning is disabled for its topics rather than guessed at.

Extraction here is per-file plain data; linking happens in :class:`SchemaModel` over the whole target set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class EmitShape:
    """One ``emit("topic", k=v, ...)`` call site's payload shape."""

    topic: str
    module: str
    line: int
    col: int
    keys: List[str] = field(default_factory=list)
    #: True when the site forwards ``**something`` — its full key set is
    #: statically unknown, which disables phantom-key checks for the topic.
    splat: bool = False


@dataclass
class HandlerShape:
    """What one callback accepts and reads from its payload."""

    ref: str                       #: "Class.method" or bare function name
    module: str
    line: int
    col: int
    #: (name, has_default) pairs, ``self``/``cls`` stripped.
    params: List[Tuple[str, bool]] = field(default_factory=list)
    kwargs_name: Optional[str] = None   #: ``**payload`` catch-all, if any
    has_star_args: bool = False
    #: Keys read optionally: ``payload.get("k")`` / ``"k" in payload``.
    gets: List[str] = field(default_factory=list)
    #: Keys read unconditionally: ``payload["k"]``.
    requires: List[str] = field(default_factory=list)
    #: The catch-all is used wholesale (iterated/forwarded/stored) — the
    #: handler effectively reads every key.
    opaque: bool = False

    # -- derived views --------------------------------------------------
    def param_names(self) -> List[str]:
        return [name for name, _ in self.params]

    def required_names(self) -> List[str]:
        """Payload keys this handler cannot be called without."""
        required = [
            name for name, has_default in self.params
            if not has_default and name != "time"
        ]
        required.extend(k for k in self.requires if k not in required)
        return required

    def read_keys(self) -> List[str]:
        """Every payload key the handler names (any mode of access)."""
        keys = [name for name in self.param_names() if name != "time"]
        for key in list(self.gets) + list(self.requires):
            if key not in keys:
                keys.append(key)
        return keys

    def names_payload_keys(self) -> bool:
        """True when the handler destructures at least one payload key.

        A catch-all-only handler (``def _on_event(self, time,
        **_payload)``) expresses no opinion about the payload shape and
        is excluded from dead-key reasoning.
        """
        return bool(self.read_keys())


@dataclass
class SubscriptionShape:
    """One ``on("topic", callback)`` site with its resolved handler ref."""

    topic: str
    module: str
    line: int
    col: int
    #: "Class.method" / bare function name, or None when the callback is
    #: an inline lambda (then ``inline`` carries the shape) or
    #: statically unresolvable (partial application etc.).
    handler_ref: Optional[str] = None
    inline: Optional[HandlerShape] = None


# ----------------------------------------------------------------------
# Per-file extraction
# ----------------------------------------------------------------------
def _kwargs_reads(
    body: Sequence[ast.AST], kwargs_name: str
) -> Tuple[List[str], List[str], bool]:
    """(optional reads, required reads, opaque) for a ``**kwargs`` param."""
    gets: List[str] = []
    requires: List[str] = []
    consumed: set = set()
    nodes = [n for stmt in body for n in ast.walk(stmt)]
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            if isinstance(recv, ast.Name) and recv.id == kwargs_name \
                    and node.func.attr == "get" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    if first.value not in gets:
                        gets.append(first.value)
                    consumed.add(id(recv))
        elif isinstance(node, ast.Subscript):
            recv = node.value
            if isinstance(recv, ast.Name) and recv.id == kwargs_name:
                key = node.slice
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    if key.value not in requires:
                        requires.append(key.value)
                    consumed.add(id(recv))
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            recv = node.comparators[0]
            if isinstance(recv, ast.Name) and recv.id == kwargs_name \
                    and isinstance(node.left, ast.Constant) \
                    and isinstance(node.left.value, str):
                if node.left.value not in gets:
                    gets.append(node.left.value)
                consumed.add(id(recv))
    opaque = any(
        isinstance(node, ast.Name) and node.id == kwargs_name
        and id(node) not in consumed
        for node in nodes
    )
    return gets, requires, opaque


def _shape_from_args(
    ref: str,
    module: str,
    line: int,
    col: int,
    args: ast.arguments,
    body: Sequence[ast.AST],
    drop_self: bool,
) -> HandlerShape:
    positional = list(args.posonlyargs) + list(args.args)
    defaults = list(args.defaults)
    padded = [False] * (len(positional) - len(defaults)) + [True] * len(defaults)
    params = list(zip([a.arg for a in positional], padded))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append((arg.arg, default is not None))
    if drop_self and params and params[0][0] in ("self", "cls"):
        params = params[1:]
    kwargs_name = args.kwarg.arg if args.kwarg else None
    gets: List[str] = []
    requires: List[str] = []
    opaque = False
    if kwargs_name is not None:
        gets, requires, opaque = _kwargs_reads(body, kwargs_name)
    return HandlerShape(
        ref=ref, module=module, line=line, col=col,
        params=params, kwargs_name=kwargs_name,
        has_star_args=args.vararg is not None,
        gets=gets, requires=requires, opaque=opaque,
    )


def extract_schema_facts(
    tree: ast.AST, module: str
) -> Tuple[List[EmitShape], List[SubscriptionShape], List[HandlerShape]]:
    """All emit shapes, subscriptions, and handler shapes in one module."""
    emits: List[EmitShape] = []
    subs: List[SubscriptionShape] = []
    handlers: List[HandlerShape] = []

    def handler_ref_of(expr: ast.AST, cls: Optional[str]) -> Optional[str]:
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id in ("self", "cls") and cls is not None:
            return f"{cls}.{expr.attr}"
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    def scan_call(node: ast.Call, cls: Optional[str]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        first = node.args[0]
        literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
        if func.attr == "emit" and literal:
            emits.append(EmitShape(
                topic=first.value, module=module,
                line=node.lineno, col=node.col_offset + 1,
                keys=sorted(
                    kw.arg for kw in node.keywords if kw.arg is not None
                ),
                splat=any(kw.arg is None for kw in node.keywords),
            ))
        elif func.attr == "on" and literal and len(node.args) == 2:
            callback = node.args[1]
            inline: Optional[HandlerShape] = None
            if isinstance(callback, ast.Lambda):
                inline = _shape_from_args(
                    "<lambda>", module, callback.lineno,
                    callback.col_offset + 1, callback.args,
                    [ast.Expr(value=callback.body)], drop_self=False,
                )
            subs.append(SubscriptionShape(
                topic=first.value, module=module,
                line=node.lineno, col=node.col_offset + 1,
                handler_ref=handler_ref_of(callback, cls),
                inline=inline,
            ))

    def walk(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ref = f"{cls}.{child.name}" if cls else child.name
                handlers.append(_shape_from_args(
                    ref, module, child.lineno, child.col_offset + 1,
                    child.args, child.body, drop_self=cls is not None,
                ))
                walk(child, cls)
            else:
                if isinstance(child, ast.Call):
                    scan_call(child, cls)
                walk(child, cls)

    walk(tree, None)
    emits.sort(key=lambda e: (e.line, e.col, e.topic))
    subs.sort(key=lambda s: (s.line, s.col, s.topic))
    handlers.sort(key=lambda h: (h.line, h.col, h.ref))
    return emits, subs, handlers


# ----------------------------------------------------------------------
# Whole-project linking
# ----------------------------------------------------------------------
@dataclass
class LinkedSubscriber:
    subscription: SubscriptionShape
    handler: Optional[HandlerShape]


class SchemaModel:
    """Per-topic union of emit shapes plus linked subscribers."""

    def __init__(
        self,
        emits: Sequence[EmitShape],
        subscriptions: Sequence[SubscriptionShape],
        handlers: Sequence[HandlerShape],
    ) -> None:
        self.emits = sorted(
            emits, key=lambda e: (e.module, e.line, e.col, e.topic),
        )
        self._by_ref: Dict[Tuple[str, str], HandlerShape] = {}
        self._by_basename: Dict[str, List[HandlerShape]] = {}
        for shape in sorted(handlers, key=lambda h: (h.module, h.line)):
            self._by_ref.setdefault((shape.module, shape.ref), shape)
            base = shape.ref.rsplit(".", 1)[-1]
            self._by_basename.setdefault(base, []).append(shape)
        self.subscribers: List[LinkedSubscriber] = [
            LinkedSubscriber(sub, self._resolve_handler(sub))
            for sub in sorted(
                subscriptions, key=lambda s: (s.module, s.line, s.col),
            )
        ]

    def _resolve_handler(
        self, sub: SubscriptionShape
    ) -> Optional[HandlerShape]:
        if sub.inline is not None:
            return sub.inline
        if sub.handler_ref is None:
            return None
        direct = self._by_ref.get((sub.module, sub.handler_ref))
        if direct is not None:
            return direct
        # Cross-module callbacks: match by exact ref first, then by
        # unique basename (deterministic: candidate lists are sorted).
        exact = [
            shape for (module, ref), shape in sorted(self._by_ref.items())
            if ref == sub.handler_ref
        ]
        if len(exact) == 1:
            return exact[0]
        base = sub.handler_ref.rsplit(".", 1)[-1]
        candidates = self._by_basename.get(base, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- topic views ----------------------------------------------------
    def topics(self) -> List[str]:
        names = {e.topic for e in self.emits}
        names.update(s.subscription.topic for s in self.subscribers)
        return sorted(names)

    def emit_sites(self, topic: str) -> List[EmitShape]:
        return [e for e in self.emits if e.topic == topic]

    def topic_subscribers(self, topic: str) -> List[LinkedSubscriber]:
        return [
            s for s in self.subscribers if s.subscription.topic == topic
        ]

    def union_keys(self, topic: str) -> List[str]:
        """Every payload key any emit site of ``topic`` provides."""
        keys: List[str] = []
        for site in self.emit_sites(topic):
            for key in site.keys:
                if key not in keys:
                    keys.append(key)
        return sorted(keys)

    def has_splat_emit(self, topic: str) -> bool:
        return any(site.splat for site in self.emit_sites(topic))
