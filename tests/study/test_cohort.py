"""Batch-kernel vs per-device-oracle equivalence.

The cohort engine's contract is *bitwise* agreement with its scalar
per-device oracle (`_debounce`, `_emit_signals`, the scalar AR(1) and
interactive walks): each kernel is checked against its scalar
counterpart on random inputs, then the full pipeline is checked end to
end — the columnar logs of ``simulate_cohort`` must equal the logs
produced by ``reference_cohort_logs`` (which walks the same named
streams one device at a time).
"""

import numpy as np
import pytest

from repro.study.cohort import (
    FAST_COEFF,
    SERVICE_COEFF60,
    SLOW_COEFF60,
    FleetConfig,
    _debounce,
    _emit_signals,
    ar1_batch,
    cohort_size,
    columns_to_logs,
    debounce_flat,
    n_cohorts,
    reference_cohort_logs,
    reference_fleet_logs,
    signal_counts_from_runs,
    simulate_cohort,
)

CFG = FleetConfig(n_devices=12, hours_scale=0.02, seed=7, cohort_size=5)


def _random_states(rng, n_devices, max_len):
    """Concatenated random int8 state series with bursty runs."""
    series = []
    for _ in range(n_devices):
        n = int(rng.integers(1, max_len))
        runs = []
        while sum(len(r) for r in runs) < n:
            runs.append(
                np.full(int(rng.integers(1, 15)), rng.integers(0, 4))
            )
        series.append(np.concatenate(runs)[:n].astype(np.int8))
    offsets = np.concatenate(
        ([0], np.cumsum([len(s) for s in series]))
    ).astype(np.int64)
    return np.concatenate(series), offsets, series


# ----------------------------------------------------------------------
# Kernel vs oracle on random inputs
# ----------------------------------------------------------------------

def test_ar1_batch_matches_scalar_lfilter_rows():
    """Parity with the scipy filter the kernel replaced (scipy is not a
    dependency; the test runs only where it is installed)."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    rng = np.random.default_rng(11)
    noise = rng.normal(0.0, 1.0, size=(7, 500))
    coeff = 1.0 - 1.0 / 420.0
    batched = ar1_batch(noise, coeff)
    for row in range(noise.shape[0]):
        expected = lfilter([1.0], [1.0, -coeff], noise[row])
        assert np.array_equal(batched[row], expected)
    # float32 rows long enough to run as speculative segments.
    noise32 = rng.normal(0.0, 30.0, size=(2, 5000)).astype(np.float32)
    for coeff in (SLOW_COEFF60, FAST_COEFF, SERVICE_COEFF60):
        expected = lfilter(
            np.ones(1, np.float32), np.array([1.0, -coeff], np.float32),
            noise32, axis=-1,
        )
        assert np.array_equal(
            ar1_batch(noise32, coeff).view(np.int32),
            expected.view(np.int32),
        )


def test_ar1_batch_preserves_float32():
    noise = np.random.default_rng(0).random((3, 64)).astype(np.float32)
    assert ar1_batch(noise, 0.9).dtype == np.float32


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_debounce_flat_matches_v1_debounce(seed):
    rng = np.random.default_rng(seed)
    flat, offsets, series = _random_states(rng, 9, 400)
    debounced, _runs = debounce_flat(flat, offsets, min_dwell_s=6)
    expected = np.concatenate(
        [_debounce(s.copy(), min_dwell_s=6) for s in series]
    )
    assert np.array_equal(debounced, expected)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_signal_counts_match_v1_emit_signals(seed):
    rng = np.random.default_rng(seed)
    flat, offsets, series = _random_states(rng, 9, 400)
    debounced, runs = debounce_flat(flat, offsets, min_dwell_s=6)
    counts, _entry, _reemit = signal_counts_from_runs(runs, len(series))
    for dev, s in enumerate(series):
        signals = _emit_signals(
            _debounce(s.copy(), min_dwell_s=6)
        )
        expected = np.zeros(4, dtype=np.int64)
        for _t, code in signals:
            expected[code] += 1
        assert np.array_equal(counts[dev], expected), f"device {dev}"


def test_debounce_removes_short_runs():
    state = np.array([0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0], dtype=np.int8)
    out = _debounce(state, min_dwell_s=3)
    # The single-sample run at index 2 is absorbed; the long run stays.
    assert out[2] == 0
    assert (out[6:13] == 1).all()


def test_debounce_preserves_length_and_first_state():
    rng = np.random.default_rng(3)
    state = rng.integers(0, 4, size=500).astype(np.int8)
    out = _debounce(state, min_dwell_s=5)
    assert len(out) == 500
    assert out[0] == state[0]


def test_debounce_keeps_first_short_run():
    # The scalar oracle keeps a device's first run even when it is
    # shorter than the dwell floor (start > 0 guard); the batch kernel
    # must too.
    flat = np.array([2, 2, 0, 0, 0, 0, 0, 0], dtype=np.int8)
    offsets = np.array([0, 8], dtype=np.int64)
    debounced, _ = debounce_flat(flat, offsets, min_dwell_s=6)
    assert np.array_equal(debounced, _debounce(flat.copy(), min_dwell_s=6))
    assert debounced[0] == 2  # first run survived


# ----------------------------------------------------------------------
# Full pipeline vs the per-device reference oracle
# ----------------------------------------------------------------------

def test_cohort_columns_bitwise_equal_reference_logs():
    for cohort in range(n_cohorts(CFG)):
        result = simulate_cohort(cohort, CFG, collect_columns=True)
        batch_logs = columns_to_logs(result.columns)
        oracle_logs = reference_cohort_logs(cohort, CFG)
        assert len(batch_logs) == len(oracle_logs)
        for got, want in zip(batch_logs, oracle_logs):
            assert got.info == want.info
            assert np.array_equal(got.timestamps, want.timestamps)
            assert np.array_equal(got.available_mb, want.available_mb)
            assert np.array_equal(got.state, want.state)
            assert np.array_equal(got.interactive, want.interactive)
            assert np.array_equal(got.n_services, want.n_services)
            assert got.signals == want.signals


def test_simulate_cohort_deterministic():
    a = simulate_cohort(0, CFG)
    b = simulate_cohort(0, CFG)
    assert a.summary == b.summary


def test_collect_columns_does_not_perturb_summary():
    # Service counts are drawn only in collect mode, on their own named
    # stream — the summary must not change.
    assert (
        simulate_cohort(0, CFG).summary
        == simulate_cohort(0, CFG, collect_columns=True).summary
    )


def test_cohort_size_auto_bounds():
    assert 4 <= cohort_size(FleetConfig(n_devices=10**6)) <= 1024
    explicit = FleetConfig(n_devices=100, cohort_size=7)
    assert cohort_size(explicit) == 7
    assert n_cohorts(explicit) == 15


def test_reference_fleet_logs_covers_all_devices():
    logs = reference_fleet_logs(CFG)
    assert len(logs) == CFG.n_devices
    assert [log.info.device_id for log in logs] == [
        f"user{i:03d}" for i in range(CFG.n_devices)
    ]
