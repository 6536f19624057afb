"""REP101/REP102/REP104 bad fixture: entropy sources outside the core.

Each marked line reads a source that differs between runs, in a package
whose values reach seeds, cache keys and journal records.  The linter
reports every one at the line that reads it, however far the value
travels afterwards.
"""

import os
import random
import time
import uuid
from typing import Any, Iterable

import numpy as np

from repro.experiments.parallel import cache_key
from repro.sim.rng import derive_seed


def launch_seed(label: str) -> int:
    return derive_seed(time.time_ns(), label)  # expect: REP101


def job_salt(spec: Any) -> str:
    return cache_key((spec, os.urandom(8)))  # expect: REP102


def run_id() -> str:
    return uuid.uuid4().hex  # expect: REP102


def reseed(streams: Any) -> None:
    rng = random.Random()  # expect: REP102
    streams.configure(seed=rng.getrandbits(32))


def jitter(n: int) -> Any:
    return np.random.rand(n)  # expect: REP102


def journal_batch(journal: Any, results: Iterable[Any]) -> None:
    pending = {result.name for result in results}
    for name in pending:  # expect: REP104
        journal.record(name, 1)
