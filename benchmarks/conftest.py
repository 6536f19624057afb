"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper and prints
the same rows/series the paper reports (see DESIGN.md's experiment
index and EXPERIMENTS.md for paper-vs-measured).  Heavy shared inputs —
the §3 synthetic population — are built once per session.

Benchmarks run the experiment exactly once via ``benchmark.pedantic``:
the interesting measurement is the experiment's output, not its wall
time, but pytest-benchmark still records the duration for regression
tracking.

The session's result cache, trace store and journals live under one
temporary ``REPRO_CACHE_DIR``, so every run starts cold: a bench never
passes on results another commit left in the user's cache, nor leaves
any there.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.experiments import study_experiments

#: Scale factor on §3 observation hours (1.0 = the full 9950 h study).
STUDY_SCALE = 0.15

_CACHE_ROOT = pytest.StashKey[str]()


def pytest_configure(config):
    root = config.stash[_CACHE_ROOT] = tempfile.mkdtemp(prefix="repro-bench-")
    os.environ["REPRO_CACHE_DIR"] = root
    # The trace store derives from the cache root unless pointed elsewhere.
    os.environ.pop("REPRO_TRACE_DIR", None)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_CACHE_ROOT], ignore_errors=True)


@pytest.fixture(scope="session")
def study_devices():
    """The cleaned §3 device population, built once."""
    return study_experiments.build_study(scale=STUDY_SCALE, seed=3)


@pytest.hookimpl(wrapper=True, trylast=True)
def pytest_runtest_call(item):
    """The regenerated tables/figures ARE the benchmark output: suspend
    pytest's capture around each bench so they always reach the terminal
    (and any tee).  Registered innermost so it runs after the capture
    plugin's own resume."""
    import sys

    capman = item.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        capman.suspend_global_capture(in_=False)
    try:
        return (yield)
    finally:
        if capman is not None:
            sys.stdout.flush()
            capman.resume_global_capture()


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
