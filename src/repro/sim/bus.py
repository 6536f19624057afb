"""The emit bus's topics and the fields each one delivers.

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
from typing import Callable, Dict, Tuple

#: Topic -> the fields every emit site of that topic passes.
TOPIC_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sched.wakeup": ("thread",),
    "sched.state": ("thread", "old", "new"),
    "sched.switch": ("thread", "core"),
    # kind: "preempt" (a more urgent class took the core) or "rotate"
    # (quantum expiry handed it to a same-class waiter).
    "sched.preempt": ("victim", "victor", "core", "kind"),
    "sched.migrate": ("thread", "src", "dst"),
    "io.complete": ("kind", "pages"),
    "process.kill": ("process", "reason"),
    "alloc.stall": ("process", "pages"),
    "memory.plan": ("manager", "freed", "writeback"),
    "pressure.state": ("level", "previous"),
    "pressure.signal": ("level",),
    "lmkd.consider": ("victim", "pressure"),
    "kswapd.wake": (),
    "kswapd.sleep": (),
    "session.end": ("player",),
    # phase: "decode", "render" or "skip".  A skip drops ``count``
    # frames and is always late; decode and render carry one frame.
    "video.frame": ("phase", "pipeline", "in_flight", "late", "count"),
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
