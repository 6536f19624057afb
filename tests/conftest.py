"""Shared test configuration.

Registers hypothesis profiles so property tests are reproducible and
CI-budgeted:

* ``ci`` (default) — derandomized (examples derive from the test body,
  not a random seed), capped example count, no per-example deadline
  (the simulator's first call warms several module caches).
* ``dev`` — small randomized profile for quick local iteration; select
  with ``HYPOTHESIS_PROFILE=dev``.
* ``thorough`` — larger randomized sweep for hunting rare interleavings
  before refreshing golden traces.

Every store a test reaches through its default location (result cache,
trace store, arena cache, journals) lives under one temporary
``REPRO_CACHE_DIR`` made for the session, so no test reads what another
run left in the user's cache, or leaves anything there.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings

_CACHE_ROOT = pytest.StashKey[str]()


def pytest_configure(config):
    root = config.stash[_CACHE_ROOT] = tempfile.mkdtemp(prefix="repro-tests-")
    os.environ["REPRO_CACHE_DIR"] = root
    # The trace store derives from the cache root unless pointed elsewhere.
    os.environ.pop("REPRO_TRACE_DIR", None)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_CACHE_ROOT], ignore_errors=True)


settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=20, deadline=None)
settings.register_profile(
    "thorough",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
