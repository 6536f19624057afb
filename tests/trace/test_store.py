"""Tests for the columnar trace store: roundtrip fidelity, content
addressing, quarantine, and parallel-replay determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import Scheduler, make_cores
from repro.sim import Simulator, millis
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import (
    analyze_store,
    analyze_view,
    record_session_trace,
    record_traces,
)
from repro.trace.store import (
    TRACE_SCHEMA_VERSION,
    TraceFormatError,
    TraceStore,
    iter_traces,
    load_trace,
    save_trace,
    trace_digest,
    trace_key,
)
from repro.trace.view import EVENT_COLUMNS, TraceView


def synthetic_trace(seed=9, n_threads=3, until_ms=20):
    """A small but event-rich recorder built from the raw scheduler."""
    sim = Simulator(seed=seed)
    sched = Scheduler(sim, make_cores([1.0]))
    recorder = TraceRecorder(sim)
    for index in range(n_threads):
        thread = sched.spawn(f"worker-{index}")
        thread.post(millis(2) * (index + 1))
    sim.run(until=millis(until_ms))
    recorder.detach()
    return recorder


# ----------------------------------------------------------------------
# Roundtrip: save -> load must preserve every event bit-for-bit
# ----------------------------------------------------------------------

def test_roundtrip_digest_identical(tmp_path):
    recorder = synthetic_trace()
    path = save_trace(recorder, tmp_path / "t.trace.npz")
    replay = load_trace(path)
    assert trace_digest(replay) == trace_digest(recorder)


def test_roundtrip_native_types(tmp_path):
    sim = Simulator(seed=9)
    sched = Scheduler(sim, make_cores([1.0]))
    recorder = TraceRecorder(sim)
    sched.spawn("worker").post(millis(4))
    sim.run(until=millis(12))
    recorder.detach()
    replay = load_trace(save_trace(recorder, tmp_path / "t.trace.npz"))
    assert replay.columns.keys() == recorder.columns.keys()
    assert type(replay.start_time) is int and type(replay.end_time) is int
    for key, column in recorder.columns.items():
        assert replay.columns[key].dtype == column.dtype, key
        assert np.array_equal(replay.columns[key], column), key
    for name in replay.thread_names():
        times, states, initial = replay.thread_columns(name)
        assert times.dtype == np.int64 and states.dtype == np.int8
        assert type(initial) is int
    for name, count in replay.migrations.items():
        assert isinstance(name, str) and type(count) is int


def test_file_packs_columns_by_dtype(tmp_path):
    path = save_trace(synthetic_trace(), tmp_path / "t.trace.npz")
    with np.load(path) as data:
        assert data.files == ["format", "layout", "int32", "int8", "int64"]
        layout = json.loads(str(data["layout"][0]))
    assert [name for name, _, _ in layout["columns"]] == list(EVENT_COLUMNS)
    assert layout["meta"] == {}


def test_roundtrip_analysis_identical_on_session(tmp_path):
    from repro.experiments.parallel import SessionSpec

    spec = SessionSpec(
        device="nexus5", resolution="480p", fps=30,
        pressure="moderate", client=None, duration_s=3.0, seed=11,
    )
    _result, recorder = record_session_trace(spec)
    replay = load_trace(save_trace(recorder, tmp_path / "s.trace.npz"))
    live = analyze_view(recorder)
    replayed = analyze_view(replay)
    assert replayed == live
    assert replayed.digest() == live.digest()


def test_save_trace_is_atomic(tmp_path):
    recorder = synthetic_trace()
    save_trace(recorder, tmp_path / "t.trace.npz")
    # The trace, its checksum envelope sealed inside it, and nothing
    # else (no staging leftovers).
    assert [p.name for p in tmp_path.iterdir()] == ["t.trace.npz"]


def test_meta_round_trips(tmp_path):
    recorder = synthetic_trace()
    path = save_trace(
        recorder, tmp_path / "t.trace.npz", meta={"device": "nexus5"}
    )
    assert load_trace(path).meta == {"device": "nexus5"}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_threads=st.integers(min_value=1, max_value=5),
    until_ms=st.integers(min_value=1, max_value=40),
)
def test_roundtrip_property(tmp_path_factory, seed, n_threads, until_ms):
    recorder = synthetic_trace(seed, n_threads, until_ms)
    tmp = tmp_path_factory.mktemp("traces")
    replay = load_trace(save_trace(recorder, tmp / "t.trace.npz"))
    assert trace_digest(replay) == trace_digest(recorder)
    assert analyze_view(replay) == analyze_view(recorder)


# ----------------------------------------------------------------------
# Format guards
# ----------------------------------------------------------------------

def test_load_rejects_truncated_file(tmp_path):
    recorder = synthetic_trace()
    path = save_trace(recorder, tmp_path / "t.trace.npz")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.trace.npz"
    path.write_bytes(b"not an npz at all")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_load_rejects_wrong_schema_version(tmp_path):
    recorder = synthetic_trace()
    path = save_trace(recorder, tmp_path / "t.trace.npz")
    with np.load(path) as data:
        columns = dict(data)
    columns["format"] = np.array([TRACE_SCHEMA_VERSION + 1])
    np.savez_compressed(path, **columns)
    with pytest.raises(TraceFormatError):
        load_trace(path)


class ColumnsView(TraceView):
    """``source``'s span served over the given ``columns``."""

    def __init__(self, source, columns):
        self.start_time = source.start_time
        self._end_time = source.end_time
        self._columns = columns

    @property
    def end_time(self):
        return self._end_time

    @property
    def columns(self):
        return self._columns


@pytest.mark.parametrize("damage", [
    lambda c: c.update(tr_offsets=c["tr_offsets"][:-1]),
    lambda c: c.update(tr_offsets=c["tr_offsets"] + 1),
    lambda c: c.update(tr_time=c["tr_time"][:-1], tr_state=c["tr_state"][:-1]),
    lambda c: c.update(tr_state=np.full_like(c["tr_state"], 99)),
    lambda c: c.update(thread_idx=c["thread_idx"] + len(c["names"])),
    lambda c: c.pop("rot_core"),
])
def test_load_rejects_inconsistent_columns(tmp_path, damage):
    # Columns are served as slices of the packed groups, so a file
    # whose columns do not fit together must fail at load, not in a
    # later query.  save_trace packs whatever columns it is given.
    recorder = synthetic_trace()
    columns = dict(recorder.columns)
    assert len(columns["tr_time"]) > 0
    damage(columns)
    path = save_trace(ColumnsView(recorder, columns), tmp_path / "t.trace.npz")
    with pytest.raises(TraceFormatError):
        load_trace(path)


@pytest.mark.parametrize("column", ["thread_initial", "tr_state", "pre_core"])
def test_load_rejects_rows_of_unequal_length(tmp_path, column):
    recorder = synthetic_trace()
    columns = dict(recorder.columns)
    columns[column] = np.append(
        columns[column], np.zeros(1, dtype=columns[column].dtype)
    )
    path = save_trace(ColumnsView(recorder, columns), tmp_path / "t.trace.npz")
    with pytest.raises(TraceFormatError, match="differ in length"):
        load_trace(path)


def _edit_layout(edit):
    """A member damage that rewrites the decoded ``layout`` in place."""
    def damage(members):
        layout = json.loads(str(members["layout"][0]))
        edit(layout)
        members["layout"] = np.array([json.dumps(layout)])
    return damage


def _retype(column, dtype):
    def edit(layout):
        for entry in layout["columns"]:
            if entry[0] == column:
                entry[1] = dtype
    return edit


@pytest.mark.parametrize("damage, reason", [
    pytest.param(lambda m: m.update(int64=m["int64"][:-1]),
                 "int64 group", id="group-shorter-than-layout"),
    pytest.param(lambda m: m.update(int32=np.append(m["int32"], np.int32(0))),
                 "int32 group", id="group-longer-than-layout"),
    pytest.param(lambda m: m.update(int8=m["int8"].astype(np.int16)),
                 "int8 group", id="group-wrong-dtype"),
    pytest.param(lambda m: m.pop("int8"), "int8", id="group-missing"),
    pytest.param(lambda m: m.pop("layout"), "layout", id="layout-missing"),
    pytest.param(_edit_layout(lambda l: l["columns"].append(l["columns"][0])),
                 "every trace column once", id="layout-duplicate-column"),
    pytest.param(_edit_layout(lambda l: l["columns"].append(["ctr_time", "int64", 0])),
                 "every trace column once", id="layout-unknown-column"),
    pytest.param(_edit_layout(_retype("thread_idx", "int64")),
                 "expected int32", id="layout-wrong-dtype"),
    pytest.param(_edit_layout(lambda l: l.update(names=[1, 2])),
                 "malformed", id="layout-names-not-strings"),
])
def test_load_rejects_inconsistent_packing(tmp_path, damage, reason):
    path = save_trace(synthetic_trace(), tmp_path / "t.trace.npz")
    with np.load(path) as data:
        members = dict(data)
    damage(members)
    np.savez_compressed(path, **members)
    with pytest.raises(TraceFormatError, match=reason):
        load_trace(path)


def test_iter_traces_skips_corrupt(tmp_path):
    save_trace(synthetic_trace(seed=1), tmp_path / "a.trace.npz")
    (tmp_path / "b.trace.npz").write_bytes(b"garbage")
    with pytest.warns(RuntimeWarning):
        found = list(iter_traces(tmp_path))
    assert [p.name for p, _ in found] == ["a.trace.npz"]


# ----------------------------------------------------------------------
# TraceStore: content addressing and quarantine
# ----------------------------------------------------------------------

def test_store_save_load_contains(tmp_path):
    store = TraceStore(tmp_path)
    key = trace_key("deadbeef" * 8)
    assert not store.contains(key)
    store.save(key, synthetic_trace())
    assert store.contains(key)
    assert store.keys() == [key]
    assert store.load(key) is not None


def test_store_quarantines_corrupt_entry(tmp_path):
    store = TraceStore(tmp_path)
    key = trace_key("deadbeef" * 8)
    store.save(key, synthetic_trace())
    store.path_for(key).write_bytes(b"garbage")
    with pytest.warns(RuntimeWarning):
        assert store.load(key) is None
    assert store.quarantined == 1
    assert not store.contains(key)
    quarantine = tmp_path / "quarantine"
    assert any(quarantine.iterdir())


def test_trace_key_depends_on_schema_and_session():
    key = trace_key("a" * 64)
    assert key != trace_key("b" * 64)
    assert len(key) == 64
    payload = json.dumps(
        {"session": "a" * 64, "trace_schema": TRACE_SCHEMA_VERSION},
        sort_keys=True, separators=(",", ":"),
    )
    import hashlib

    assert key == hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Parallel replay determinism
# ----------------------------------------------------------------------

def _record_pair(store):
    from repro.experiments.parallel import SessionSpec

    specs = [
        SessionSpec(
            device="nexus5", resolution="480p", fps=30,
            pressure=pressure, client=None, duration_s=2.0, seed=5,
        )
        for pressure in ("moderate", "critical")
    ]
    record_traces(specs, store, jobs=1, cache=False)
    return specs


def test_analyze_store_jobs_byte_identity(tmp_path):
    store = TraceStore(tmp_path)
    _record_pair(store)
    serial = analyze_store(store, jobs=1)
    parallel = analyze_store(store, jobs=4)
    assert list(serial) == list(parallel)
    for key in serial:
        assert serial[key].digest() == parallel[key].digest()


def test_record_traces_skips_existing(tmp_path):
    from repro.experiments.parallel import FabricReport

    store = TraceStore(tmp_path)
    specs = _record_pair(store)
    report = FabricReport()
    results = record_traces(
        specs, store, jobs=1, cache=False, report=report
    )
    assert report.cache_hits == len(specs)
    assert results == [None] * len(specs)
