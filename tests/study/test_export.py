"""Round-trip tests for the SignalCapturer log export."""

import numpy as np
import pytest

from repro.study.export import (
    load_device_log,
    load_population,
    save_device_log,
    save_population,
)
from repro.study.cohort import FleetConfig
from repro.study.fleet import run_fleet

#: Seed 2 gives all three devices interactive samples, so the cleaned
#: population that feeds the analysis keeps every device.
SMALL = FleetConfig(n_devices=3, hours_scale=0.02, seed=2)


def small_population():
    return run_fleet(SMALL, keep_logs=True).logs


def test_round_trip_exact(tmp_path):
    log = small_population()[0]
    path = save_device_log(log, tmp_path / "dev.jsonl.gz")
    loaded = load_device_log(path)
    assert loaded.info == log.info
    assert np.array_equal(loaded.timestamps, log.timestamps)
    assert np.allclose(loaded.available_mb, log.available_mb, atol=0.01)
    assert np.array_equal(loaded.state, log.state)
    assert np.array_equal(loaded.interactive, log.interactive)
    assert loaded.signals == [tuple(s) for s in log.signals]


def test_stride_downsamples_but_keeps_signals(tmp_path):
    log = small_population()[0]
    path = save_device_log(log, tmp_path / "dev.jsonl.gz", sample_stride=10)
    loaded = load_device_log(path)
    assert len(loaded.timestamps) == (len(log.timestamps) + 9) // 10
    assert loaded.signals == [tuple(s) for s in log.signals]


def test_invalid_stride_rejected(tmp_path):
    log = small_population()[0]
    with pytest.raises(ValueError):
        save_device_log(log, tmp_path / "x.jsonl.gz", sample_stride=0)


def test_population_round_trip(tmp_path):
    population = small_population()
    paths = save_population(population, tmp_path / "logs")
    assert len(paths) == 3
    loaded = load_population(tmp_path / "logs")
    assert [log.info.device_id for log in loaded] == [
        log.info.device_id for log in population
    ]


def test_loaded_logs_feed_analysis(tmp_path):
    from repro.study import analysis

    population = small_population()
    save_population(population, tmp_path / "logs")
    loaded = load_population(tmp_path / "logs")
    summary = analysis.study_summary(
        analysis.clean(loaded, min_interactive_hours=0.0)
    )
    assert summary["devices"] == 3


def test_missing_meta_rejected(tmp_path):
    import gzip

    path = tmp_path / "broken.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write('{"type": "sample", "t": 0, "avail_mb": 1, '
                 '"state": 0, "interactive": true, "services": 1}\n')
    with pytest.raises(ValueError):
        load_device_log(path)
