"""Fleet orchestration: shard invariance, resume, export, CLI.

The headline guarantee: the merged §3 summary is bit-identical for any
shard grouping (cohort partition fixed, any worker count, any merge
order) and matches the analysis pipeline applied to the per-device
reference oracle exactly — same floats, not approximately.
"""

import dataclasses
import functools
import hashlib
import pickle
import platform
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.parallel import CACHE_DIR_ENV
from repro.study import analysis
from repro.study.cohort import (
    FleetConfig,
    FleetSummary,
    n_cohorts,
    reference_fleet_logs,
    simulate_cohort,
)
from repro.study.export import (
    exported_cohort_paths,
    iter_exported_logs,
    load_cohort_columns,
    save_cohort_columns,
)
from repro.study import fleet as fleet_module
from repro.study.fleet import (
    CohortJob,
    cohort_job_key,
    default_fleet_journal_path,
    fleet_journal,
    run_fleet,
)

CFG = FleetConfig(n_devices=12, hours_scale=0.02, seed=7, cohort_size=5)


@functools.lru_cache(maxsize=None)
def _reference_logs():
    return tuple(reference_fleet_logs(CFG))


def _cleaned():
    threshold = 10.0 * CFG.hours_scale
    return analysis.clean(
        list(_reference_logs()), min_interactive_hours=threshold
    )


# ----------------------------------------------------------------------
# Shard invariance
# ----------------------------------------------------------------------

def test_summary_bit_identical_across_worker_counts():
    summaries = [run_fleet(CFG, jobs=j).summary for j in (None, 1, 4, 16)]
    digests = {s.state_digest() for s in summaries}
    assert len(digests) == 1
    for s in summaries[1:]:
        assert s == summaries[0]


def test_summary_bit_identical_across_merge_groupings():
    results = [
        simulate_cohort(c, CFG).summary for c in range(n_cohorts(CFG))
    ]
    left = FleetSummary()
    for s in results:
        left = left.merge(s)
    right = results[0]
    rest = results[1]
    for s in results[2:]:
        rest = rest.merge(s)
    right = right.merge(rest)
    reverse = FleetSummary()
    for s in reversed(results):
        reverse = reverse.merge(s)
    assert left == right
    assert left.state_digest() == right.state_digest()
    # Counters are order-invariant; candidate ordering is
    # canonical, so even a reversed merge matches.
    assert left == reverse


def _cohort_summaries(config):
    return [
        simulate_cohort(c, config).summary for c in range(n_cohorts(config))
    ]


def test_nary_merge_equals_pairwise_fold_bitwise():
    summaries = _cohort_summaries(CFG)
    folded = FleetSummary()
    for s in summaries:
        folded = folded.merge(s)
    at_once = FleetSummary().merge(*summaries)
    assert at_once == folded
    assert at_once.state_digest() == folded.state_digest()
    assert pickle.dumps(at_once) == pickle.dumps(folded)
    assert run_fleet(CFG).summary.state_digest() == at_once.state_digest()


# ----------------------------------------------------------------------
# Exactness vs the analysis pipeline (repro.study.analysis)
# ----------------------------------------------------------------------

def test_table1_matches_v1_analysis_exactly():
    fleet = run_fleet(CFG).summary
    assert fleet.table1() == analysis.study_summary(_cleaned())


def test_transitions_match_v1_analysis_exactly():
    fleet = run_fleet(CFG).summary
    assert fleet.transitions() == analysis.transition_stats(_cleaned())


#: A fleet where no kept device spends more than 30 % of its time out
#: of Normal, so Figure 6 falls back to the nine kept devices with the
#: largest pressure fraction, pooled across four cohorts.  Eleven are
#: kept, and the most pressured one (device 13) has the largest index,
#: so the top-9 cut must order by fraction to keep it.
LOW_PRESSURE_CFG = FleetConfig(
    n_devices=16, hours_scale=0.02, seed=40, cohort_size=4
)


def test_transitions_fallback_matches_v1_analysis_exactly():
    config = LOW_PRESSURE_CFG
    fleet = run_fleet(config).summary
    assert fleet.sel_devices == 0
    assert n_cohorts(config) > 1 and fleet.n_kept > 9
    cleaned = analysis.clean(
        reference_fleet_logs(config),
        min_interactive_hours=10.0 * config.hours_scale,
    )
    assert len(cleaned) == fleet.n_kept
    assert fleet.transitions() == analysis.transition_stats(cleaned)


def test_keep_logs_bitwise_equal_reference():
    result = run_fleet(CFG, keep_logs=True)
    assert result.logs is not None
    reference = _reference_logs()
    assert len(result.logs) == len(reference)
    for got, want in zip(result.logs, reference):
        assert got.info == want.info
        assert np.array_equal(got.available_mb, want.available_mb)
        assert np.array_equal(got.state, want.state)
        assert np.array_equal(got.interactive, want.interactive)
        assert got.signals == want.signals


# ----------------------------------------------------------------------
# Journal resume
# ----------------------------------------------------------------------

def test_journal_resume_replays_without_recompute(tmp_path):
    path = tmp_path / "fleet.journal"
    first = run_fleet(CFG, journal=fleet_journal(path))
    assert first.report.computed == n_cohorts(CFG)
    second = run_fleet(CFG, journal=fleet_journal(path))
    assert second.report.computed == 0
    assert second.report.resumed == n_cohorts(CFG)
    assert second.summary == first.summary
    assert second.summary.state_digest() == first.summary.state_digest()


def test_each_computed_cohort_trims_the_heap_once(tmp_path, monkeypatch):
    trims = []
    monkeypatch.setattr(fleet_module, "_malloc_trim", lambda: trims.append)
    path = tmp_path / "fleet.journal"
    run_fleet(CFG, journal=fleet_journal(path))
    assert trims == [0] * n_cohorts(CFG)
    run_fleet(CFG, journal=fleet_journal(path))
    assert len(trims) == n_cohorts(CFG)  # resumed cohorts allocate nothing


def test_heap_trim_is_skipped_without_malloc_trim(monkeypatch):
    monkeypatch.setattr(fleet_module, "_malloc_trim", lambda: None)
    assert run_fleet(CFG).report.computed == n_cohorts(CFG)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's"
)
def test_malloc_trim_resolves_on_glibc():
    assert fleet_module._malloc_trim() is not None


def test_journal_keys_differ_per_cohort_and_config():
    a = cohort_job_key(CohortJob(0, CFG))
    b = cohort_job_key(CohortJob(1, CFG))
    c = cohort_job_key(CohortJob(0, FleetConfig(n_devices=12, seed=8)))
    assert len({a, b, c}) == 3


def test_foreign_journal_is_discarded(tmp_path):
    # A sweep-format journal at the same path must not replay into a
    # fleet run (different magic -> discarded wholesale).
    from repro.experiments.checkpoint import SweepJournal

    path = tmp_path / "fleet.journal"
    sweep = SweepJournal(path, resume=False)
    sweep.begin()
    sweep.close()
    result = run_fleet(CFG, journal=fleet_journal(path))
    assert result.report.computed == n_cohorts(CFG)
    assert result.report.resumed == 0


def test_default_journal_path_is_config_addressed(tmp_path):
    a = default_fleet_journal_path(CFG, root=tmp_path)
    b = default_fleet_journal_path(
        FleetConfig(n_devices=12, hours_scale=0.02, seed=8, cohort_size=5),
        root=tmp_path,
    )
    assert a != b
    assert a.parent == tmp_path / "journals"


# ----------------------------------------------------------------------
# Columnar export
# ----------------------------------------------------------------------

def test_export_streams_cohorts_and_roundtrips(tmp_path):
    export_dir = tmp_path / "pop"
    result = run_fleet(CFG, export_dir=export_dir)
    paths = exported_cohort_paths(export_dir)
    assert len(paths) == n_cohorts(CFG)
    assert result.export_paths == paths
    loaded = list(iter_exported_logs(export_dir))
    reference = _reference_logs()
    assert len(loaded) == len(reference)
    for got, want in zip(loaded, reference):
        assert got.info == want.info
        assert np.array_equal(got.available_mb, want.available_mb)
        assert np.array_equal(got.state, want.state)
        assert np.array_equal(got.n_services, want.n_services)
        assert got.signals == want.signals


def test_export_format_version_checked(tmp_path):
    export_dir = tmp_path / "pop"
    run_fleet(CFG, export_dir=export_dir)
    path = exported_cohort_paths(export_dir)[0]
    columns = load_cohort_columns(path)
    import repro.study.export as export_mod

    original = export_mod.COHORT_FORMAT_VERSION
    try:
        export_mod.COHORT_FORMAT_VERSION = original + 1
        with pytest.raises(ValueError, match="format"):
            load_cohort_columns(path)
    finally:
        export_mod.COHORT_FORMAT_VERSION = original
    save_cohort_columns(columns, tmp_path / "again.npz")
    reread = load_cohort_columns(tmp_path / "again.npz")
    assert np.array_equal(reread.available_mb, columns.available_mb)


def test_export_leaves_no_tmp_files(tmp_path):
    export_dir = tmp_path / "pop"
    run_fleet(CFG, export_dir=export_dir)
    assert not list(export_dir.glob("*.tmp"))


def test_resume_re_exports_missing_cohort(tmp_path):
    export_dir = tmp_path / "pop"
    journal = tmp_path / "fleet.journal"
    first = run_fleet(CFG, journal=fleet_journal(journal), export_dir=export_dir)
    missing = export_dir / "cohort-00001.npz"
    original = missing.read_bytes()
    missing.unlink()
    resumed = run_fleet(
        CFG, journal=fleet_journal(journal), export_dir=export_dir
    )
    assert resumed.report.computed == 1
    assert resumed.report.resumed == n_cohorts(CFG) - 1
    assert missing.read_bytes() == original
    assert resumed.export_paths == exported_cohort_paths(export_dir)
    assert len(list(iter_exported_logs(export_dir))) == CFG.n_devices
    assert resumed.summary.state_digest() == first.summary.state_digest()


def test_exported_cohort_paths_sort_by_index(tmp_path):
    for index in (100000, 0, 99999, 5):
        (tmp_path / f"cohort-{index:05d}.npz").touch()
    assert [p.name for p in exported_cohort_paths(tmp_path)] == [
        "cohort-00000.npz",
        "cohort-00005.npz",
        "cohort-99999.npz",
        "cohort-100000.npz",
    ]


def _cohort_columns():
    return simulate_cohort(0, CFG, collect_columns=True).columns


def test_cohort_npz_stores_floats_and_deflates_the_rest(tmp_path):
    path = save_cohort_columns(_cohort_columns(), tmp_path / "c.npz")
    with zipfile.ZipFile(path) as archive:
        kinds = {i.filename: i.compress_type for i in archive.infolist()}
    assert kinds.pop("available_mb.npy") == zipfile.ZIP_STORED
    assert set(kinds.values()) == {zipfile.ZIP_DEFLATED}


def test_cohort_npz_round_trips_through_np_load(tmp_path):
    columns = _cohort_columns()
    path = save_cohort_columns(columns, tmp_path / "c.npz")
    fields = [f.name for f in dataclasses.fields(columns)]
    with np.load(path) as data:
        assert data.files == fields + ["format"]
        for name in fields:
            assert np.array_equal(data[name], getattr(columns, name))
    reread = load_cohort_columns(path)
    for name in fields:
        want, got = getattr(columns, name), getattr(reread, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_savez_compressed_exports_still_load(tmp_path):
    import repro.study.export as export_mod

    columns = _cohort_columns()
    arrays = dataclasses.asdict(columns)
    arrays["format"] = np.array(
        [export_mod.COHORT_FORMAT_VERSION], dtype=np.int64
    )
    np.savez_compressed(tmp_path / "old.npz", **arrays)
    reread = load_cohort_columns(tmp_path / "old.npz")
    for name, want in dataclasses.asdict(columns).items():
        got = getattr(reread, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_cohort_npz_bytes_are_reproducible(tmp_path):
    columns = _cohort_columns()
    a = save_cohort_columns(columns, tmp_path / "a.npz")
    b = save_cohort_columns(columns, tmp_path / "b.npz")
    assert a.read_bytes() == b.read_bytes()


#: sha256 over every member's name and decompressed ``.npy`` payload,
#: in archive order, of ``_cohort_columns()`` as saved.  The container
#: (deflate level, member headers) may change; the data may not.
COHORT_NPZ_CONTENT_SHA256 = (
    "0a11af2d32315f668f1e478dd4d6042fd4693d2edaf5a1ed3b99ef83896c6264"
)


def test_cohort_npz_content_is_pinned(tmp_path):
    path = save_cohort_columns(_cohort_columns(), tmp_path / "c.npz")
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            digest.update(info.filename.encode())
            digest.update(archive.read(info.filename))
    assert digest.hexdigest() == COHORT_NPZ_CONTENT_SHA256


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_study_devices_flag(tmp_path, capsys):
    journal = tmp_path / "cli.journal"
    code = main([
        "study", "--devices", "12", "--scale", "0.02", "--seed", "7",
        "--cohort-size", "5", "--journal", str(journal), "--json",
    ])
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["devices"] == 12
    expected = run_fleet(CFG).summary
    assert payload["summary"] == expected.table1()
    assert payload["state_digest"] == expected.state_digest()
    assert journal.exists()


def test_cli_study_resume_uses_journal(tmp_path, capsys):
    journal = tmp_path / "cli.journal"
    args = [
        "study", "--devices", "12", "--scale", "0.02", "--seed", "7",
        "--cohort-size", "5", "--journal", str(journal), "--json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    import json

    a, b = json.loads(first), json.loads(second)
    assert a["state_digest"] == b["state_digest"]
    assert "resumed 3" in b["fabric"]


def test_cli_study_export(tmp_path, capsys):
    export_dir = tmp_path / "pop"
    code = main([
        "study", "--devices", "12", "--scale", "0.02", "--seed", "7",
        "--cohort-size", "5", "--no-journal",
        "--export", str(export_dir),
    ])
    assert code == 0
    assert len(exported_cohort_paths(export_dir)) == n_cohorts(CFG)


def test_cli_study_legacy_path_unchanged(tmp_path, monkeypatch, capsys):
    # Without --devices the study runs the paper's 80 devices, with the
    # default journal under the cache directory.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert main(["study", "--scale", "0.02", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "devices kept:" in out
    assert "(of 80)" in out
    assert "frac_median_util_ge_60" in out
    assert "critical  ->" in out
    assert "fabric: computed" in out
    assert list((tmp_path / "journals").glob("fleet-*.journal"))
