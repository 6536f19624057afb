"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.parallel import CACHE_DIR_ENV


def test_parser_rejects_unknown_device():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--device", "iphone"])


def test_run_command_json(capsys):
    code = main([
        "run", "--device", "nexus5", "--resolution", "240p", "--fps", "30",
        "--duration", "5", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["device"] == "Nexus 5"
    assert payload["frames_processed"] == 150
    assert payload["crashed"] is False


def test_run_command_human(capsys):
    code = main([
        "run", "--device", "nexus5", "--resolution", "240p",
        "--duration", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rendered" in out and "MOS" in out


def test_run_with_memory_aware_abr(capsys):
    code = main([
        "run", "--device", "nokia1", "--resolution", "480p", "--fps", "60",
        "--pressure", "moderate", "--duration", "8", "--memory-aware-abr",
        "--json",
    ])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_sweep_command_json(capsys):
    code = main([
        "sweep", "--devices", "nexus5", "--resolutions", "240p",
        "--fps", "30", "--pressures", "normal", "--duration", "5",
        "--reps", "1", "--json",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["crash_rate"] == 0.0


def test_study_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    code = main(["study", "--scale", "0.02", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "devices kept" in out
    assert "frac_median_util_ge_60" in out


@pytest.mark.parametrize("flags, message", [
    (["--devices", "-5"], "n_devices must be >= 1"),
    (["--devices", "0"], "n_devices must be >= 1"),
    (["--scale", "0"], "hours_scale must be > 0"),
    (["--scale", "-1"], "hours_scale must be > 0"),
    (["--cohort-size", "-3"], "cohort_size must be >= 0"),
], ids=["devices-neg", "devices-zero", "scale-zero", "scale-neg",
        "cohort-size-neg"])
def test_study_rejects_invalid_input(flags, message, capsys):
    assert main(["study", "--no-journal", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("study: ")
    assert message in captured.err


def test_trace_command_json(capsys):
    code = main([
        "trace", "--pressure", "normal", "--duration", "8", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "video_thread_states_s" in payload
    assert payload["crashed"] in (True, False)


def test_trace_record_analyze_ls_roundtrip(tmp_path, capsys):
    store = str(tmp_path / "traces")
    code = main([
        "trace", "record", "--devices", "nexus5", "--pressures", "normal",
        "--resolution", "240p", "--duration", "2", "--store", store,
        "--no-cache", "--json",
    ])
    assert code == 0
    recorded = json.loads(capsys.readouterr().out)
    assert recorded["recorded"] == 1
    (key,) = recorded["keys"]

    code = main(["trace", "analyze", "--store", store, "--json"])
    assert code == 0
    analytics = json.loads(capsys.readouterr().out)
    assert list(analytics) == [key]
    assert "video_state_times" in analytics[key]

    code = main(["trace", "ls", "--store", store, "--json"])
    assert code == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing) == 1


def test_trace_ls_counts_match_trace_digest(tmp_path, capsys):
    from repro.trace.store import TraceStore, trace_digest

    store = str(tmp_path / "traces")
    assert main([
        "trace", "record", "--devices", "nexus5", "--pressures", "moderate",
        "--resolution", "240p", "--duration", "2", "--store", store,
        "--no-cache", "--json",
    ]) == 0
    (key,) = json.loads(capsys.readouterr().out)["keys"]
    assert main(["trace", "ls", "--store", store, "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    digest = trace_digest(TraceStore(store).load(key))
    assert row["threads"] == digest["threads"] > 0
    assert row["transitions"] == digest["transitions"] > 0


def _store_with_traces(root, count):
    """A trace store holding ``count`` small recorded traces; their keys."""
    from repro.sched import Scheduler, make_cores
    from repro.sim import Simulator, millis
    from repro.trace import TraceRecorder, TraceStore, trace_key

    store = TraceStore(root)
    keys = []
    for seed in range(count):
        sim = Simulator(seed=seed)
        sched = Scheduler(sim, make_cores([1.0]))
        recorder = TraceRecorder(sim)
        sched.spawn("worker").post(millis(2))
        sim.run(until=millis(5))
        recorder.detach()
        keys.append(trace_key(f"{seed:064x}"))
        store.save(keys[-1], recorder, meta={"device": "nexus5"})
    return sorted(keys)


def test_trace_ls_inflates_no_group_member(tmp_path, capsys, monkeypatch):
    import zipfile

    root = tmp_path / "traces"
    keys = _store_with_traces(root, 2)
    opened = []
    real_open = zipfile.ZipFile.open

    def spy(self, name, *args, **kwargs):
        opened.append(getattr(name, "filename", name))
        return real_open(self, name, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "open", spy)
    assert main(["trace", "ls", "--store", str(root), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["key"] for row in rows] == keys
    assert all(row["threads"] > 0 and row["transitions"] > 0 for row in rows)
    assert sorted(opened) == ["format.npy", "format.npy",
                              "layout.npy", "layout.npy"]


@pytest.mark.parametrize("envelope", [True, False],
                         ids=["with-envelope", "without-envelope"])
def test_trace_ls_quarantines_schema_1_file_once(tmp_path, capsys, envelope):
    import warnings

    import numpy as np

    from repro.storage import sha256_hex, write_sidecar

    root = tmp_path / "traces"
    keys = _store_with_traces(root, 2)
    old = root / "ab" / f"{'ab' * 32}.trace.npz"
    old.parent.mkdir(exist_ok=True)
    # Schema 1 wrote one npz member per column, counter tracks included.
    np.savez_compressed(
        old, format=np.array([1]), span=np.array([0, 5000]),
        names=np.array(["worker"]), thread_idx=np.array([0], dtype=np.int32),
        tr_offsets=np.array([0, 0]), counter_names=np.array([], dtype=np.str_),
        ctr_time=np.array([], dtype=np.int64), meta_json=np.array(["{}"]),
    )
    if envelope:
        write_sidecar(old, kind="trace-store", schema="v1/trace",
                      digest=sha256_hex(old.read_bytes()),
                      size=old.stat().st_size)
    with pytest.warns(RuntimeWarning) as caught:
        assert main(["trace", "ls", "--store", str(root), "--json"]) == 0
    assert len([w for w in caught if w.category is RuntimeWarning]) == 1
    assert [row["key"] for row in json.loads(capsys.readouterr().out)] == keys
    quarantined = sorted(p.name for p in (root / "quarantine").iterdir())
    assert quarantined[0] == old.name and len(quarantined) == 1 + envelope
    # Quarantined once: a second listing finds nothing more to move.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["trace", "ls", "--store", str(root), "--json"]) == 0
    assert [row["key"] for row in json.loads(capsys.readouterr().out)] == keys


def test_trace_record_skips_existing(tmp_path, capsys):
    store = str(tmp_path / "traces")
    argv = [
        "trace", "record", "--devices", "nexus5", "--pressures", "normal",
        "--resolution", "240p", "--duration", "2", "--store", store,
        "--no-cache", "--json",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["recorded"] == 0
    assert again["already_recorded"] == 1


def test_run_record_trace_flag(tmp_path, capsys):
    store = str(tmp_path / "traces")
    code = main([
        "run", "--device", "nexus5", "--resolution", "240p", "--fps", "30",
        "--duration", "5", "--record-trace", store, "--no-cache", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # The traced run reports the same session the untraced path would.
    assert payload["frames_processed"] == 150
    from repro.trace.store import TraceStore

    assert len(TraceStore(store).keys()) == 1


def test_trace_analyze_interrupt_exits_130_with_resume_hint(
    tmp_path, monkeypatch, capsys
):
    from pathlib import Path

    from repro.experiments.parallel import SweepInterrupted
    from repro.trace import replay

    journal = Path(tmp_path / "analyze.journal")

    def interrupted(*args, **kwargs):
        raise SweepInterrupted(1, 3, journal_path=journal)

    monkeypatch.setattr(replay, "analyze_store", interrupted)
    code = main(["trace", "analyze", "--store", str(tmp_path / "traces")])
    assert code == 130
    err = capsys.readouterr().err
    assert "analysis interrupted: 1/3 traces checkpointed" in err
    assert f"--resume (journal: {journal})" in err


def test_sweep_record_trace_flag(tmp_path, capsys):
    from repro.trace.store import TraceStore

    store = str(tmp_path / "traces")
    argv = [
        "sweep", "--devices", "nexus5", "--resolutions", "240p",
        "--fps", "30", "--pressures", "normal", "--duration", "3",
        "--reps", "2", "--no-cache", "--no-journal", "--json",
    ]
    assert main(argv) == 0
    untraced = json.loads(capsys.readouterr().out)
    assert main([*argv, "--record-trace", store]) == 0
    assert json.loads(capsys.readouterr().out) == untraced
    keys = TraceStore(store).keys()
    assert len(keys) == 2
    # Both traces exist and --no-cache keeps no results, so the second
    # run re-runs the sessions untraced for its report.
    assert main([*argv, "--record-trace", store]) == 0
    assert json.loads(capsys.readouterr().out) == untraced
    assert TraceStore(store).keys() == keys
