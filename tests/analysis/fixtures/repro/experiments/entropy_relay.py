"""REP101 bad fixture, support half: a wall-clock read two calls deep.

``relay`` -> ``mix`` -> ``entropy_ns`` hands a wall-clock value to
callers in other modules.  The read is flagged here, at its own line;
the caller in ``bad_relay_seed`` that lands it in a seed is not.
"""

import time


def entropy_ns() -> int:
    return time.time_ns()  # expect: REP101


def mix(value: int) -> int:
    return entropy_ns() ^ value


def relay(value: int) -> int:
    return mix(value)
