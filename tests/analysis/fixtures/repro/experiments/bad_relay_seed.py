"""REP101 bad fixture, sink half: a relayed wall clock becomes a seed.

No line here reads a source; the value that reaches ``derive_seed``
was read in ``entropy_relay.entropy_ns``, which is where it is flagged.
"""

from repro.sim.rng import derive_seed

from .entropy_relay import relay


def launch_session(label: str) -> int:
    return derive_seed(relay(7), label)
