"""Supervision tests: retries, failure budgets, and pool recovery.

The fabric's resilience guarantee is stronger than "doesn't crash": a
recovered run must be **bit-identical** to a fault-free one, because a
session's result is a pure function of its spec.
"""

from __future__ import annotations

import warnings

import pytest

from repro.experiments.parallel import (
    FabricReport,
    JobFailedError,
    RetryPolicy,
    SessionSpec,
    cache_key,
    run_jobs,
    run_sessions,
)
from repro.faults.chaos import results_digest
from repro.faults.injector import Fault, installed_plan

FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_s=0.001)


def _spec(seed=7, **overrides):
    base = dict(
        device="nexus5", resolution="240p", fps=30, pressure="normal",
        client=None, duration_s=2.0, seed=seed,
    )
    base.update(overrides)
    return SessionSpec(**base)


def test_retry_after_transient_failures_is_bit_identical(tmp_path):
    """The retry-determinism satellite: a job that fails N-1 times and
    then succeeds yields a byte-identical SessionResult — the injected
    failures must not perturb the session's seed schedule."""
    spec = _spec()
    [clean] = run_sessions([spec], cache=False)

    report = FabricReport()
    with installed_plan(
        [Fault(point=f"job:{cache_key(spec)}", kind="raise", times=2)],
        tmp_path,
    ):
        [recovered] = run_sessions(
            [spec], cache=False, policy=FAST_RETRIES, report=report
        )
    assert recovered == clean  # full dataclass equality
    assert results_digest([recovered]) == results_digest([clean])
    assert report.failures == 2
    assert report.retries == 2
    assert report.computed == 1  # the final, successful attempt


def test_exhausted_retry_budget_raises_job_failed(tmp_path):
    spec = _spec()
    with installed_plan(
        [Fault(point=f"job:{cache_key(spec)}", kind="raise", times=5)],
        tmp_path,
    ):
        with pytest.raises(JobFailedError, match="after 2 attempts"):
            run_sessions(
                [spec], cache=False,
                policy=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            )


def _fails_on_odd(payload):
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return payload


def test_failed_job_is_named_by_its_key_else_its_index():
    """The message names the job the fabric ran (a fleet cohort, an
    arena cell, ...), not a generic "session job"."""
    policy = RetryPolicy(max_attempts=1, backoff_base_s=0.001)
    with pytest.raises(
        JobFailedError,
        match=r"^job fleet-c1 \(seed 1\) still failing after 1 attempts",
    ):
        run_jobs([0, 1], _fails_on_odd, keys=[None, "fleet-c1"],
                 policy=policy)
    with pytest.raises(
        JobFailedError,
        match=r"^job #3 \(seed 3\) still failing after 1 attempts",
    ):
        run_jobs([0, 2, 4, 5], _fails_on_odd, seeds=[0, 1, 2, 3],
                 policy=policy)


def test_backoff_is_deterministic_bounded_and_jittered():
    policy = RetryPolicy()
    for attempt in range(6):
        delay = policy.backoff_s(seed=123, attempt=attempt)
        assert delay == policy.backoff_s(seed=123, attempt=attempt)
        base = min(
            policy.backoff_max_s,
            policy.backoff_base_s * policy.backoff_factor ** attempt,
        )
        assert base <= delay <= base * (1 + policy.jitter_frac)
    # Jitter varies with the seed (not a constant factor).
    assert policy.backoff_s(1, 0) != policy.backoff_s(2, 0)


def test_poisoned_pool_job_recovers_serially(tmp_path):
    """A job raising inside a worker re-runs serially in-process and the
    sweep's results stay identical to a fault-free serial run."""
    specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
    clean = run_sessions(specs, cache=False)

    report = FabricReport()
    with installed_plan(
        [Fault(point=f"job:{cache_key(specs[2])}", kind="raise", times=1)],
        tmp_path,
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = run_sessions(
                specs, jobs=2, cache=False,
                policy=FAST_RETRIES, report=report,
            )
    assert recovered == clean
    assert results_digest(recovered) == results_digest(clean)
    assert report.failures >= 1
    assert report.serial_fallback >= 1
