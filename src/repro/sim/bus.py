"""The emit bus's topics and the fields each one delivers.

Each topic is a module constant whose value is its topic string
(``VIDEO_FRAME == "video.frame"``).  Every gate, emit and in-package
subscription names the constant, never the string::

    if VIDEO_FRAME in sim.topics:
        sim.emit(VIDEO_FRAME, phase="render", ...)

A misspelled topic is then a ``NameError``: at import when it is
misspelled in the ``import``, else the first time its line runs (a
gate runs in every session, an emit whenever its topic is subscribed).
Ruff's undefined-name check flags it without running anything.

Every :meth:`~repro.sim.Simulator.emit` site passes exactly the fields
declared for its topic here, by keyword, and every subscriber is called
as ``callback(time=now, **fields)``.  :func:`check_subscriber` holds a
subscriber to that shape once, when :meth:`~repro.sim.Simulator.on`
registers it, so a handler that cannot take a topic's fields — or that
reads a field no emit site provides — fails where it subscribes, in
every run and test that attaches it, not on the first traced delivery.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Final, Tuple

SCHED_WAKEUP: Final = "sched.wakeup"
SCHED_STATE: Final = "sched.state"
SCHED_SWITCH: Final = "sched.switch"
SCHED_PREEMPT: Final = "sched.preempt"
SCHED_MIGRATE: Final = "sched.migrate"
IO_COMPLETE: Final = "io.complete"
PROCESS_KILL: Final = "process.kill"
ALLOC_STALL: Final = "alloc.stall"
MEMORY_PLAN: Final = "memory.plan"
PRESSURE_STATE: Final = "pressure.state"
PRESSURE_SIGNAL: Final = "pressure.signal"
LMKD_CONSIDER: Final = "lmkd.consider"
KSWAPD_WAKE: Final = "kswapd.wake"
KSWAPD_SLEEP: Final = "kswapd.sleep"
SESSION_END: Final = "session.end"
VIDEO_FRAME: Final = "video.frame"

#: Topic -> the fields every emit site of that topic passes.
TOPIC_FIELDS: Dict[str, Tuple[str, ...]] = {
    SCHED_WAKEUP: ("thread",),
    SCHED_STATE: ("thread", "old", "new"),
    SCHED_SWITCH: ("thread", "core"),
    # kind: "preempt" (a more urgent class took the core) or "rotate"
    # (quantum expiry handed it to a same-class waiter).
    SCHED_PREEMPT: ("victim", "victor", "core", "kind"),
    SCHED_MIGRATE: ("thread", "src", "dst"),
    IO_COMPLETE: ("kind", "pages"),
    PROCESS_KILL: ("process", "reason"),
    ALLOC_STALL: ("process", "pages"),
    MEMORY_PLAN: ("manager", "freed", "writeback"),
    PRESSURE_STATE: ("level", "previous"),
    PRESSURE_SIGNAL: ("level",),
    LMKD_CONSIDER: ("victim", "pressure"),
    KSWAPD_WAKE: (),
    KSWAPD_SLEEP: (),
    SESSION_END: ("player",),
    # phase: "decode", "render" or "skip".  A skip drops ``count``
    # frames and is always late; decode and render carry one frame.
    VIDEO_FRAME: ("phase", "pipeline", "in_flight", "late", "count"),
}

_NAMED = (
    inspect.Parameter.POSITIONAL_OR_KEYWORD,
    inspect.Parameter.KEYWORD_ONLY,
)


def check_subscriber(topic: str, callback: Callable[..., None]) -> None:
    """Raise unless ``callback`` can take ``topic``'s deliveries.

    ``ValueError`` for an undeclared topic; ``TypeError`` when the
    handler cannot bind ``time`` plus every declared field, or names a
    parameter that is neither.  A ``**kwargs`` catch-all takes fields
    the handler does not read.  ``inspect.signature`` follows
    ``__wrapped__``, so a timing wrapper is checked as its target.
    """
    fields = TOPIC_FIELDS.get(topic)
    if fields is None:
        raise ValueError(f"undeclared emit-bus topic {topic!r}")
    signature = inspect.signature(callback)
    try:
        signature.bind(time=0, **dict.fromkeys(fields))
    except TypeError as exc:
        raise TypeError(
            f"{callback!r} cannot take {topic!r} deliveries "
            f"({', '.join(('time',) + fields)}): {exc}"
        ) from None
    unknown = [
        name for name, parameter in signature.parameters.items()
        if parameter.kind in _NAMED and name != "time" and name not in fields
    ]
    if unknown:
        raise TypeError(
            f"{callback!r} names {', '.join(map(repr, unknown))}, which "
            f"no {topic!r} delivery carries "
            f"({', '.join(('time',) + fields)})"
        )
