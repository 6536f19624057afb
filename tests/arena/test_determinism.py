"""Leaderboard byte-identity across every execution mode.

The artifact's canonical bytes must not depend on *how* the grid was
executed: serial, fanned over workers, replayed from the record cache,
or interrupted and resumed from the checkpoint journal.  These are the
acceptance gates for the arena's determinism story.
"""

import pytest

from repro.arena import (
    ArenaConfig,
    ArenaRecord,
    arena_job_key,
    arena_jobs,
    artifact_bytes,
    make_arena_journal,
    run_arena,
)
from repro.experiments.parallel import (
    FabricReport,
    ResultCache,
    SweepInterrupted,
)
from repro.faults.injector import Fault, installed_plan

#: Small but structurally real: two families, two pressure regimes.
CONFIG = ArenaConfig(
    policies=("pressure", "hybrid"),
    devices=("nexus5",),
    pressures=("normal", "moderate"),
    reps=1,
    duration_s=4.0,
)


@pytest.fixture(scope="module")
def reference_bytes():
    """The serial, uncached, unjournaled artifact."""
    result = run_arena(CONFIG, jobs=1)
    return artifact_bytes(result.leaderboard)


def test_parallel_run_is_byte_identical(reference_bytes):
    result = run_arena(CONFIG, jobs=4)
    assert artifact_bytes(result.leaderboard) == reference_bytes


def test_cache_replay_is_byte_identical(tmp_path, reference_bytes):
    cache = ResultCache(tmp_path / "cache", result_type=ArenaRecord)
    first = run_arena(CONFIG, jobs=1, cache=cache)
    assert artifact_bytes(first.leaderboard) == reference_bytes

    replay_report = FabricReport()
    replay = run_arena(CONFIG, jobs=1, cache=cache, report=replay_report)
    assert artifact_bytes(replay.leaderboard) == reference_bytes
    assert replay_report.cache_hits == len(arena_jobs(CONFIG))
    assert replay_report.computed == 0


def test_quarantined_cache_entry_reaches_the_report(
    tmp_path, reference_bytes
):
    """A corrupt arena cache entry is quarantined, recomputed, and
    counted in the run's FabricReport (the ``fabric:`` line)."""
    grid = arena_jobs(CONFIG)
    cache = ResultCache(tmp_path / "cache", result_type=ArenaRecord)
    run_arena(CONFIG, jobs=1, cache=cache)
    path = cache.path_for(arena_job_key(grid[0]))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    report = FabricReport()
    with pytest.warns(RuntimeWarning, match="quarantined"):
        result = run_arena(
            CONFIG, jobs=1,
            cache=ResultCache(tmp_path / "cache", result_type=ArenaRecord),
            report=report,
        )
    assert report.quarantined == 1
    assert report.computed == 1
    assert report.cache_hits == len(grid) - 1
    assert artifact_bytes(result.leaderboard) == reference_bytes


def test_resume_after_interrupt_is_byte_identical(tmp_path, reference_bytes):
    """Ctrl-C mid-run (injected at the second job's fault point) drains
    to the journal and raises SweepInterrupted; resuming with the same
    config replays the checkpointed cells and lands on the same bytes."""
    grid = arena_jobs(CONFIG)
    journal_path = tmp_path / "arena.journal"

    with installed_plan(
        [Fault(point=f"job:{arena_job_key(grid[1])}", kind="interrupt")],
        tmp_path / "plan",
    ):
        with pytest.raises(SweepInterrupted) as excinfo:
            run_arena(
                CONFIG, jobs=1,
                journal=make_arena_journal(grid, path=journal_path),
            )
    assert excinfo.value.completed == 1
    assert excinfo.value.journal_path == journal_path

    report = FabricReport()
    resumed = run_arena(
        CONFIG, jobs=1,
        journal=make_arena_journal(grid, path=journal_path, resume=True),
        report=report,
    )
    assert artifact_bytes(resumed.leaderboard) == reference_bytes
    assert report.resumed == 1
    assert report.computed == len(grid) - 1


def test_foreign_journal_is_rejected_wholesale(tmp_path, reference_bytes):
    """A session-sweep journal at the arena journal's path must be
    discarded (magic/schema mismatch), not partially replayed."""
    grid = arena_jobs(CONFIG)
    journal_path = tmp_path / "foreign.journal"
    journal_path.write_text(
        '{"journal":"repro-sweep","version":1,"schema":2}\n'
    )
    report = FabricReport()
    result = run_arena(
        CONFIG, jobs=1,
        journal=make_arena_journal(grid, path=journal_path, resume=True),
        report=report,
    )
    assert report.resumed == 0
    assert artifact_bytes(result.leaderboard) == reference_bytes


def test_job_keys_cover_policy_identity():
    """Bumping a policy's revision must change its jobs' content
    addresses (cached records from the old behavior stop matching)."""
    job = arena_jobs(CONFIG)[0]
    bumped = type(job)(**{
        **job.__dict__, "policy_fingerprint": f"{job.policy}@999",
    })
    assert arena_job_key(bumped) != arena_job_key(job)
