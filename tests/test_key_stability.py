"""Content addresses and derived seeds do not depend on the process.

Every result cache, trace store, arena record and fleet journal is keyed
by ``cache_key``/``spec_trace_key``/``arena_job_key``/``cohort_job_key``,
and every simulation stream is seeded through ``derive_seed``.  A key
that picked up the per-process string-hash salt or an environment
variable (the cache and trace directories choose *where* results live,
never *what* they are keyed by) would make two runs of the same job
miss each other's results or replay a different universe.

Each side of the comparison is a fresh interpreter, in the style of
``test_imports.py``: the two differ in ``PYTHONHASHSEED`` and in every
``REPRO_*`` directory/cache variable, and must print identical keys.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json

from repro.arena.driver import ArenaConfig, arena_asset, arena_job_key, arena_jobs
from repro.experiments.parallel import SessionSpec, cache_key, repetition_seeds
from repro.sim.rng import derive_seed
from repro.study.cohort import FleetConfig
from repro.study.fleet import CohortJob, cohort_job_key
from repro.trace.replay import spec_trace_key

specs = [
    SessionSpec("nexus5", "480p", 60, pressure, None, 10.0, seed)
    for pressure in ("normal", "moderate", "critical")
    for seed in repetition_seeds(7, 2)
]
specs.append(SessionSpec(
    "nokia1", "240p", 30, "moderate", "youtube", 5.0, 3,
    organic_apps=4, asset=arena_asset(5.0),
))
cohorts = [
    CohortJob(index, FleetConfig(n_devices=64, hours_scale=0.01, seed=5))
    for index in range(3)
] + [CohortJob(0, FleetConfig(seed=9, min_interactive_hours=2.5),
               export_dir="cohorts", keep_columns=True)]
print(json.dumps({
    "hash_probe": hash("repro"),
    "keys": {
        "cache_key": [cache_key(spec) for spec in specs],
        "spec_trace_key": [spec_trace_key(spec) for spec in specs],
        "arena_job_key": [arena_job_key(job) for job in arena_jobs(ArenaConfig())],
        "cohort_job_key": [cohort_job_key(job) for job in cohorts],
        "derive_seed": [
            derive_seed(master, name)
            for master in (0, 7, 2**40 + 3)
            for name in ("kernel", "video.decoder", "workload.organic")
        ],
    },
}))
"""


def _keys_in_fresh_interpreter(tmp_path, hash_seed, tag, **extra_env):
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED=hash_seed,
        REPRO_CACHE_DIR=str(tmp_path / f"cache-{tag}"),
        REPRO_TRACE_DIR=str(tmp_path / f"traces-{tag}"),
        **extra_env,
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_keys_do_not_depend_on_hash_seed_or_environment(tmp_path):
    first = _keys_in_fresh_interpreter(tmp_path, "1", "a")
    second = _keys_in_fresh_interpreter(
        tmp_path, "2", "b", REPRO_NO_CACHE="1"
    )
    # The two interpreters really salt str hashes differently.
    assert first["hash_probe"] != second["hash_probe"]
    assert first["keys"] == second["keys"]
    # Distinct jobs keep distinct addresses.
    keys = first["keys"]
    for name in ("cache_key", "spec_trace_key", "arena_job_key",
                 "cohort_job_key", "derive_seed"):
        assert keys[name] and len(set(keys[name])) == len(keys[name]), name
