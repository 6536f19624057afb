"""Tests for the user-study analysis pipeline."""

import numpy as np

from repro.study import analysis as A
from repro.study.cohort import FleetConfig
from repro.study.fleet import run_fleet
from repro.study.signalcapturer import STATE_CODES, DeviceInfo, DeviceLog


def synthetic_log(states, available=None, signals=(), total_mb=1024):
    n = len(states)
    return DeviceLog(
        info=DeviceInfo("dev", "Test", total_mb, "11", 4),
        timestamps=np.arange(n),
        available_mb=np.array(
            available if available is not None else [200.0] * n, dtype=np.float32
        ),
        state=np.array(states, dtype=np.int8),
        interactive=np.ones(n, dtype=bool),
        n_services=np.full(n, 10, dtype=np.int16),
        signals=list(signals),
    )


def fleet_logs(scale=0.05, users=16, seed=5):
    config = FleetConfig(n_devices=users, hours_scale=scale, seed=seed)
    return run_fleet(config, keep_logs=True).logs


def population(scale=0.05, users=16, seed=5):
    return A.clean(fleet_logs(scale, users, seed), min_interactive_hours=0.25)


def test_utilization_cdf_monotone():
    cdf = A.utilization_cdf(population())
    values = [v for v, _ in cdf]
    fractions = [f for _, f in cdf]
    assert values == sorted(values)
    assert fractions[-1] == 1.0


def test_time_in_states_partitions():
    log = synthetic_log([0, 0, 1, 1, 3, 3, 3, 0])
    fractions = A.time_in_states(log)
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    assert fractions["critical"] == 3 / 8


def test_signal_rates_counts_by_level():
    log = synthetic_log(
        [0] * 3600,
        signals=[(10, STATE_CODES["moderate"]), (20, STATE_CODES["critical"]),
                 (30, STATE_CODES["critical"])],
    )
    rates = A.signal_rates([log])[0]
    assert rates.moderate_per_hour == 1.0
    assert rates.critical_per_hour == 2.0
    assert rates.total_per_hour == 3.0


def test_fraction_helpers():
    log_hot = synthetic_log([0] * 3600, signals=[(1, 1)] * 15)
    log_cold = synthetic_log([0] * 3600)
    rates = A.signal_rates([log_hot, log_cold])
    assert A.fraction_with_any_signal(rates) == 0.5


def test_state_episodes_runs():
    log = synthetic_log([0, 0, 1, 1, 1, 2, 0, 0])
    episodes = A.state_episodes(log)
    assert episodes == [(0, 0, 2), (1, 2, 3), (2, 5, 1), (0, 6, 2)]


def test_transition_stats_percentages_sum_to_100():
    log = synthetic_log([0, 1, 2, 1, 3, 2, 1, 0] * 50)
    stats = A.transition_stats([log], min_nonnormal_fraction=0.3)
    for row in stats.values():
        assert abs(sum(row["next"].values()) - 100.0) < 1e-6


def test_top_pressure_devices_ordering():
    calm = synthetic_log([0] * 100)
    stormy = synthetic_log([3] * 100)
    top = A.top_pressure_devices([calm, stormy], count=1)
    assert top[0] is stormy


def test_available_memory_by_state_summary():
    log = synthetic_log(
        [0, 0, 3, 3], available=[500.0, 480.0, 40.0, 50.0]
    )
    summary = A.available_memory_by_state(log)
    assert summary["critical"]["mean"] == 45.0
    assert summary["normal"]["mean"] == 490.0
    assert "moderate" not in summary


def test_clean_threshold_extremes():
    logs = fleet_logs(users=6, seed=7)
    assert A.clean(logs, min_interactive_hours=1e9) == []
    # A zero threshold still drops devices with no interactive sample
    # (seed 7 draws one night-only log).
    kept_all = A.clean(logs, min_interactive_hours=0.0)
    with_samples = [log for log in logs if log.interactive.any()]
    assert 0 < len(with_samples) < len(logs)
    assert len(kept_all) == len(with_samples)
    for log in kept_all:
        assert log.interactive.all()


def test_study_summary_keys_and_ranges():
    summary = A.study_summary(population())
    for key, value in summary.items():
        if key == "devices":
            continue
        assert 0.0 <= value <= 1.0, key
