"""Tests for the synthetic user-study population (fleet-engine logs)."""

import numpy as np

from repro.study.cohort import FleetConfig, reference_fleet_logs
from repro.study.fleet import run_fleet
from repro.study.signalcapturer import STATE_CODES


SMALL = FleetConfig(n_devices=6, hours_scale=0.05, seed=7)


def fleet_population(config=SMALL):
    return run_fleet(config, keep_logs=True).logs


def test_population_size_and_determinism():
    a = fleet_population()
    b = fleet_population()
    assert len(a) == 6
    assert a[0].info.total_mb == b[0].info.total_mb
    assert np.array_equal(a[0].available_mb, b[0].available_mb)
    # The batch engine and the per-device oracle draw the same population.
    ref = reference_fleet_logs(SMALL)
    assert [log.info for log in ref] == [log.info for log in a]
    assert np.array_equal(ref[0].available_mb, a[0].available_mb)


def test_device_log_shapes_consistent():
    for log in fleet_population():
        n = len(log.timestamps)
        assert len(log.available_mb) == n
        assert len(log.state) == n
        assert len(log.interactive) == n
        assert len(log.n_services) == n
        assert log.hours_logged > 0


def test_available_memory_within_bounds():
    for log in fleet_population():
        assert (log.available_mb > 0).all()
        assert (log.available_mb < log.info.total_mb).all()


def test_states_match_available_ordering():
    """Critical samples have lower available memory than Normal ones
    (Figure 5's ordering), modulo debouncing."""
    merged_normal, merged_critical = [], []
    for log in fleet_population(FleetConfig(n_devices=12, hours_scale=0.05, seed=2)):
        normal = log.available_mb[log.state == STATE_CODES["normal"]]
        critical = log.available_mb[log.state == STATE_CODES["critical"]]
        if len(normal) and len(critical):
            merged_normal.append(float(normal.mean()))
            merged_critical.append(float(critical.mean()))
    assert merged_normal
    assert np.mean(merged_critical) < np.mean(merged_normal)


def test_signals_only_nonnormal():
    population = fleet_population()
    assert any(log.signals for log in population)
    for log in population:
        for _, code in log.signals:
            assert code != STATE_CODES["normal"]


def test_signal_times_within_log():
    for log in fleet_population():
        for t, _ in log.signals:
            assert 0 <= t < len(log.timestamps)


def test_utilization_definition():
    for log in fleet_population():
        util = log.utilization()
        assert ((util > 0) & (util < 1)).all()
