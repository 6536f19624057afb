"""CPU core and cluster models.

Work amounts throughout the simulator are expressed in **reference
microseconds**: the time the work would take on a 1.0 GHz reference
core.  A core with ``freq_ghz`` f executes work at rate f, so wall time
is ``ref_us / f``.  This lets device profiles state per-frame decode
costs once and have faster devices (Nexus 6P big cluster at 2.0 GHz)
finish them proportionally sooner — the mechanism behind the paper's
observation that more CPU headroom masks memory-pressure stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from ..sim.clock import Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .scheduler import Thread


@dataclass(slots=True)
class Core:
    """One CPU core.

    ``current`` and the bookkeeping fields are owned by the scheduler;
    other components treat cores as read-only descriptors.
    """

    index: int
    freq_ghz: float
    cluster: str = "main"
    current: Optional["Thread"] = None
    slice_end_event: object = None
    slice_started: Time = 0
    busy_time: Time = field(default=0)
    #: Quantum-elision state (owned by the scheduler): while
    #: ``elide_event`` is armed, the core runs a single analytically
    #: fast-forwarded slice chain that began at ``elide_from`` with
    #: ``elide_work`` reference-us outstanding, and ``busy_time`` /
    #: ``slice_started`` are stale until the scheduler materializes or
    #: completes the elision.
    elide_event: object = None
    elide_from: Time = 0
    elide_work: float = 0.0

    @property
    def idle(self) -> bool:
        return self.current is None


def make_cores(frequencies_ghz: List[float], clusters: Optional[List[str]] = None) -> List[Core]:
    """Build a core list from per-core frequencies (and optional cluster tags)."""
    if clusters is None:
        clusters = ["main"] * len(frequencies_ghz)
    if len(clusters) != len(frequencies_ghz):
        raise ValueError("clusters and frequencies_ghz must have equal length")
    return [
        Core(index=i, freq_ghz=f, cluster=c)
        for i, (f, c) in enumerate(zip(frequencies_ghz, clusters))
    ]
