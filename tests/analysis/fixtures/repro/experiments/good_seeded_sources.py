"""REP101/REP102/REP104 good fixture: the same jobs, reproducibly.

Seeds come from the caller's master seed, generators are seeded, and a
set is sorted before its order can reach a journal.  Environment
variables only choose where output goes.
"""

import os
import random
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.sim.rng import derive_seed


def launch_seed(master_seed: int, label: str) -> int:
    return derive_seed(master_seed, label)


def reseed(streams: Any, master_seed: int) -> None:
    rng = random.Random(derive_seed(master_seed, "reseed"))
    streams.configure(seed=rng.getrandbits(32))


def jitter(n: int, seed: int) -> Any:
    return np.random.default_rng(seed).random(n)


def journal_batch(journal: Any, results: Iterable[Any]) -> None:
    pending = {result.name for result in results}
    for name in sorted(pending):
        journal.record(name, 1)


def output_dir() -> Path:
    return Path(os.environ.get("REPRO_OUT", "out"))
