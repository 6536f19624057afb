"""Checkpoint journal tests: incremental durability and exact resume."""

from __future__ import annotations

import json

import pytest

from repro.experiments import parallel
from repro.experiments.checkpoint import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    SweepJournal,
    default_journal_path,
    sweep_digest,
)
from repro.experiments.parallel import (
    SCHEMA_VERSION,
    FabricReport,
    ResultCache,
    SessionSpec,
    SweepInterrupted,
    cache_key,
    run_sessions,
)
from repro.faults.injector import Fault, installed_plan
from repro.validate.golden import session_digest


def _spec(seed=7, **overrides):
    base = dict(
        device="nexus5", resolution="240p", fps=30, pressure="normal",
        client=None, duration_s=2.0, seed=seed,
    )
    base.update(overrides)
    return SessionSpec(**base)


def test_journal_records_and_replays(tmp_path):
    specs = [_spec(seed=s) for s in (1, 2)]
    journal = SweepJournal(tmp_path / "sweep.journal", resume=False)
    results = run_sessions(specs, cache=False, journal=journal)
    assert journal.recorded == 2

    reopened = SweepJournal(tmp_path / "sweep.journal")
    replayed = reopened.begin()
    reopened.close()
    assert replayed == {
        cache_key(spec): result for spec, result in zip(specs, results)
    }


def test_resume_replays_instead_of_recomputing(tmp_path, monkeypatch):
    specs = [_spec(seed=s) for s in (1, 2, 3)]
    path = tmp_path / "sweep.journal"
    first = run_sessions(
        specs, cache=False, journal=SweepJournal(path, resume=False)
    )

    def refuse(spec):
        raise AssertionError(f"job recomputed on resume: seed {spec.seed}")

    monkeypatch.setattr(parallel, "run_spec", refuse)
    report = FabricReport()
    resumed = run_sessions(
        specs, cache=False, journal=SweepJournal(path), report=report
    )
    assert resumed == first
    assert report.resumed == 3
    assert report.computed == 0


def test_cache_hits_are_not_journaled(tmp_path):
    """A warm re-run is served from the cache alone: nothing is
    journaled, so no journal file is even created."""
    specs = [_spec(seed=s) for s in (1, 2, 3)]
    cache = ResultCache(tmp_path / "cache")
    first = run_sessions(specs, cache=cache)

    path = tmp_path / "warm.journal"
    journal = SweepJournal(path, resume=False)
    report = FabricReport()
    again = run_sessions(specs, cache=cache, journal=journal, report=report)
    assert again == first
    assert journal.recorded == 0
    assert not path.exists()
    assert report.cache_hits == len(specs)
    assert report.computed == 0


def test_interrupted_cached_sweep_resumes_to_fault_free_digest(tmp_path):
    """With a cache attached, a Ctrl-C'd sweep's computed jobs land in
    both journal and cache; the resume counts them as cache hits and
    lands on the fault-free results."""
    specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
    reference = [
        session_digest(r) for r in run_sessions(specs, cache=False)
    ]
    cache = ResultCache(tmp_path / "cache")
    path = tmp_path / "sweep.journal"
    with installed_plan(
        [Fault(point=f"job:{cache_key(specs[2])}", kind="interrupt")],
        tmp_path / "plan",
    ):
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sessions(
                specs, cache=cache, journal=SweepJournal(path, resume=False)
            )
    assert excinfo.value.completed == 2

    report = FabricReport()
    results = run_sessions(
        specs, cache=cache, journal=SweepJournal(path), report=report
    )
    assert [session_digest(r) for r in results] == reference
    assert report.resumed + report.cache_hits + report.computed == len(specs)
    assert report.cache_hits == 2
    assert report.computed == 2


def test_truncated_tail_line_is_tolerated(tmp_path):
    """A kill mid-append leaves at most one partial line; the journal
    must keep every complete record and count the damage."""
    specs = [_spec(seed=s) for s in (1, 2)]
    path = tmp_path / "sweep.journal"
    run_sessions(specs, cache=False, journal=SweepJournal(path, resume=False))
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "deadbeef", "result": "QUJ')  # no newline

    journal = SweepJournal(path)
    entries = journal.begin()
    journal.close()
    assert len(entries) == 2
    assert journal.skipped == 1


def test_record_with_wrong_crc_is_skipped_on_resume(tmp_path):
    """A record cut mid-write can still be a complete JSON line (the
    tail of the previous buffer); the per-record CRC is what rejects
    it.  Resume must skip exactly that record and replay the rest."""
    specs = [_spec(seed=s) for s in (1, 2)]
    path = tmp_path / "sweep.journal"
    run_sessions(specs, cache=False, journal=SweepJournal(path, resume=False))

    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[2])
    entry["result"] = entry["result"][: len(entry["result"]) // 2]
    lines[2] = json.dumps(entry)  # valid JSON, stale CRC
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    journal = SweepJournal(path)
    entries = journal.begin()
    journal.close()
    assert len(entries) == 1
    assert journal.skipped == 1


def test_v1_journal_without_crcs_still_replays(tmp_path):
    """Pre-CRC (version 1) journals written by earlier releases resume
    as before: their records carry no crc field and are trusted."""
    specs = [_spec(seed=s) for s in (1, 2)]
    path = tmp_path / "sweep.journal"
    results = run_sessions(
        specs, cache=False, journal=SweepJournal(path, resume=False)
    )

    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["version"] = 1
    downgraded = [json.dumps(header)]
    for line in lines[1:]:
        entry = json.loads(line)
        entry.pop("crc", None)
        downgraded.append(json.dumps(entry))
    path.write_text("\n".join(downgraded) + "\n", encoding="utf-8")

    journal = SweepJournal(path)
    entries = journal.begin()
    journal.close()
    assert entries == {
        cache_key(spec): result for spec, result in zip(specs, results)
    }
    assert journal.skipped == 0


def test_stale_schema_journal_is_discarded(tmp_path):
    """Results journaled under a different SCHEMA_VERSION are not
    comparable; the whole journal is dropped and rewritten fresh."""
    path = tmp_path / "sweep.journal"
    header = {
        "journal": JOURNAL_MAGIC,
        "version": JOURNAL_VERSION,
        "schema": SCHEMA_VERSION + 1,
    }
    path.write_text(json.dumps(header) + '\n{"key":"k","result":"QUJD"}\n')

    journal = SweepJournal(path)
    assert journal.begin() == {}
    journal.close()
    assert json.loads(path.read_text().splitlines()[0])["schema"] == (
        SCHEMA_VERSION
    )


def test_sweep_digest_names_the_grid_not_the_order(tmp_path):
    specs = [_spec(seed=s) for s in (1, 2, 3)]
    assert sweep_digest(specs) == sweep_digest(list(reversed(specs)))
    assert sweep_digest(specs) != sweep_digest(specs[:2])
    path = default_journal_path(specs, root=tmp_path)
    assert path == default_journal_path(specs, root=tmp_path)
    assert path.suffix == ".journal"
    assert path.parent == tmp_path / "journals"
