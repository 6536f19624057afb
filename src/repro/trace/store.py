"""Columnar on-disk trace store: record once, analyze many times.

The paper's own method captures Perfetto traces once and mines them
repeatedly for Tables 4-5 and Figures 13-14; this module gives the
simulator the same split.  A :class:`~repro.trace.recorder.TraceRecorder`
serialises to one compact ``.trace.npz`` file — struct-of-arrays column
groups for transitions, preemptions, rotations, migrations, and counter
tracks, written atomically like the cohort exporter — and
:class:`ReplayTrace` loads it back as a
:class:`~repro.trace.view.TraceView`, so every query in
:mod:`repro.trace.analysis` runs over the recorded file **without
re-simulating**, bit-identical to the live recorder.

Traces are content-addressed by ``(session spec digest, trace schema
version)`` via :func:`trace_key`, extending the result cache's
machinery: a :class:`TraceStore` lays files out exactly like
:class:`~repro.experiments.parallel.ResultCache` (two-level fan-out,
atomic writes, corrupt entries quarantined — moved, never deleted) and
the golden-digest suite locks the format with :func:`trace_digest`.

Format (schema-versioned; a mismatch on load is an error, not a guess):

======================  ================================================
``format``              ``[TRACE_SCHEMA_VERSION]``
``span``                ``[start_time, end_time]`` in ticks
``names``               global string table (threads + preemption actors)
``thread_idx/initial``  threads with transitions, sorted by name
``tr_offsets/time/state``  flattened per-thread transition runs
``pre_*``, ``rot_*``    (time, victim, victor, core) event rows
``mig_thread/count``    core-migration totals per thread
``counter_names``, ``ctr_*``  flattened counter-track samples
``meta_json``           free-form session metadata (spec digest, ...)
======================  ================================================
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import warnings
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..sched.states import ThreadState
from ..sim.clock import Time
from ..storage import (
    Quarantine,
    StorageReport,
    publish_via,
    verified_read,
    write_sidecar,
)
from .view import (
    STATE_INDEX,
    STATES,
    Preemption,
    ThreadColumns,
    TraceView,
    Transition,
)

#: Bump when the column layout or the event semantics change: old trace
#: files then stop matching their content address and are re-recorded.
TRACE_SCHEMA_VERSION = 1

#: Environment override for the default trace-store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Subdirectory where corrupt trace files are moved for post-mortem
#: inspection (mirrors the result cache's quarantine contract).
QUARANTINE_DIR = "quarantine"

#: File suffix of stored traces.
TRACE_SUFFIX = ".trace.npz"

class TraceFormatError(ValueError):
    """A trace file is truncated, corrupt, or from another schema."""


def trace_key(session_key: str) -> str:
    """Content address of a trace: session spec digest + trace schema.

    ``session_key`` is the session's own content address (e.g.
    :func:`repro.experiments.parallel.cache_key` of its spec), so the
    same machinery that addresses results addresses their traces — and
    a schema bump retires every stored trace at once.
    """
    material = {"trace_schema": TRACE_SCHEMA_VERSION, "session": session_key}
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_trace_dir() -> Path:
    """``$REPRO_TRACE_DIR``, else ``<result cache root>/traces``."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env)
    from ..experiments.parallel import default_cache_dir

    return default_cache_dir() / "traces"


# ======================================================================
# Serialisation
# ======================================================================

def _event_columns(
    events: List[Preemption], table: Dict[str, int], prefix: str
) -> Dict[str, np.ndarray]:
    return {
        f"{prefix}_time": np.array([e[0] for e in events], dtype=np.int64),
        f"{prefix}_victim": np.array(
            [table[e[1]] for e in events], dtype=np.int32
        ),
        f"{prefix}_victor": np.array(
            [table[e[2]] for e in events], dtype=np.int32
        ),
        f"{prefix}_core": np.array([e[3] for e in events], dtype=np.int32),
    }


def _columns_from_view(
    view: TraceView, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, np.ndarray]:
    """Flatten a trace into its canonical column groups."""
    names = set(view.transitions)
    names.update(view.initial_states)
    names.update(view.migrations)
    for events in (view.preemptions, view.rotations):
        for _time, victim, victor, _core in events:
            names.add(victim)
            names.add(victor)
    name_list = sorted(names)
    table = {name: index for index, name in enumerate(name_list)}

    threads = sorted(view.transitions)
    tr_time: List[Time] = []
    tr_state: List[int] = []
    tr_offsets = [0]
    for thread in threads:
        for time, state in view.transitions[thread]:
            tr_time.append(time)
            tr_state.append(STATE_INDEX[state])
        tr_offsets.append(len(tr_time))
    initial = [
        STATE_INDEX[
            view.initial_states.get(thread, ThreadState.SLEEPING)
        ]
        for thread in threads
    ]

    migrating = sorted(view.migrations)
    counter_names = sorted(view.counters)
    ctr_time: List[Time] = []
    ctr_value: List[float] = []
    ctr_offsets = [0]
    for counter in counter_names:
        for time, value in view.counters[counter]:
            ctr_time.append(time)
            ctr_value.append(value)
        ctr_offsets.append(len(ctr_time))

    columns: Dict[str, np.ndarray] = {
        "format": np.array([TRACE_SCHEMA_VERSION], dtype=np.int64),
        "span": np.array(
            [view.start_time, view.end_time], dtype=np.int64
        ),
        "names": np.array(name_list, dtype=np.str_),
        "thread_idx": np.array(
            [table[t] for t in threads], dtype=np.int32
        ),
        "thread_initial": np.array(initial, dtype=np.int8),
        "tr_offsets": np.array(tr_offsets, dtype=np.int64),
        "tr_time": np.array(tr_time, dtype=np.int64),
        "tr_state": np.array(tr_state, dtype=np.int8),
        "mig_thread": np.array(
            [table[t] for t in migrating], dtype=np.int32
        ),
        "mig_count": np.array(
            [view.migrations[t] for t in migrating], dtype=np.int64
        ),
        "counter_names": np.array(counter_names, dtype=np.str_),
        "ctr_offsets": np.array(ctr_offsets, dtype=np.int64),
        "ctr_time": np.array(ctr_time, dtype=np.int64),
        "ctr_value": np.array(ctr_value, dtype=np.float64),
        "meta_json": np.array(
            [json.dumps(meta or {}, sort_keys=True)], dtype=np.str_
        ),
    }
    columns.update(_event_columns(view.preemptions, table, "pre"))
    columns.update(_event_columns(view.rotations, table, "rot"))
    return columns


#: Envelope schema tag stored in every trace sidecar.
TRACE_ENVELOPE_SCHEMA = f"v{TRACE_SCHEMA_VERSION}/trace"


def save_trace(
    view: TraceView,
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
    *,
    report: Optional[StorageReport] = None,
) -> Path:
    """Write one trace as compressed npz column groups (atomic).

    Publishes through :mod:`repro.storage` (tmp + fsync + ``os.replace``
    + directory fsync), so a killed recorder never leaves a half-written
    trace for replay, and records a checksum envelope sidecar so a torn
    or bit-rotted trace is quarantined on read, never analyzed.
    """
    path = Path(path)
    columns = _columns_from_view(view, meta)

    def fill(fh: IO[bytes]) -> None:
        np.savez_compressed(fh, **columns)

    digest = publish_via(path, fill, surface="trace-store", report=report)
    write_sidecar(
        path,
        kind="trace-store",
        schema=TRACE_ENVELOPE_SCHEMA,
        digest=digest,
        size=path.stat().st_size,
    )
    return path


#: The run of a thread with no transitions: empty, initially SLEEPING.
_NO_RUN = (0, 0, STATE_INDEX[ThreadState.SLEEPING])


class ReplayTrace(TraceView):
    """A recorded trace loaded from disk, analysis-ready.

    Keeps the file's columns as loaded: :meth:`thread_columns` serves
    slices of the ``tr_time``/``tr_state`` arrays, so the queries in
    :mod:`repro.trace.analysis` read the same int64/int8 values they
    read from the live recorder the file was saved from, and answer
    bit-identically.  The native Python containers of the
    :class:`~repro.trace.view.TraceView` contract (:attr:`transitions`,
    the event lists, :attr:`counters`) are built on first access only.
    """

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        span = columns["span"].tolist()
        self.start_time = span[0]
        self._end_time: Time = span[1]
        self._columns = columns
        self._names: List[str] = columns["names"].tolist()
        offsets = columns["tr_offsets"].tolist()
        initial = columns["thread_initial"].tolist()
        #: Thread name -> (first transition row, end row, initial code).
        self._runs: Dict[str, Tuple[int, int, int]] = {
            self._names[index]: (offsets[row], offsets[row + 1], initial[row])
            for row, index in enumerate(columns["thread_idx"].tolist())
        }
        self.migrations = {
            self._names[index]: count
            for index, count in zip(
                columns["mig_thread"].tolist(), columns["mig_count"].tolist()
            )
        }
        meta = json.loads(str(columns["meta_json"][0]))
        #: Free-form metadata recorded at save time (spec digest, ...).
        self.meta: Dict[str, Any] = meta if isinstance(meta, dict) else {}

    @property
    def end_time(self) -> Time:
        return self._end_time

    @property
    def thread_count(self) -> int:
        """Threads with at least one transition."""
        return len(self._runs)

    @property
    def transition_count(self) -> int:
        """Transitions over all threads."""
        return int(self._columns["tr_offsets"][-1])

    def thread_names(self) -> List[str]:
        return sorted(self._runs)

    def thread_columns(self, thread_name: str) -> ThreadColumns:
        start, stop, initial = self._runs.get(thread_name, _NO_RUN)
        return ThreadColumns(
            self._columns["tr_time"][start:stop],
            self._columns["tr_state"][start:stop],
            initial,
        )

    #: :class:`~repro.trace.view.TraceView` containers decoded from the
    #: columns on first access, each by its ``_decode_<name>`` method.
    _DECODED = ("transitions", "initial_states", "preemptions", "rotations",
                "counters")

    def __getattr__(self, name: str) -> object:
        # Only reached while ``name`` is not yet an instance attribute:
        # decode it once, then later reads find the stored value.
        if name not in ReplayTrace._DECODED:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value: object = getattr(self, f"_decode_{name}")()
        setattr(self, name, value)
        return value

    def _decode_transitions(self) -> Dict[str, List[Transition]]:
        times = self._columns["tr_time"].tolist()
        codes = self._columns["tr_state"].tolist()
        return {
            name: [(times[i], STATES[codes[i]]) for i in range(start, stop)]
            for name, (start, stop, _initial) in self._runs.items()
        }

    def _decode_initial_states(self) -> Dict[str, ThreadState]:
        return {
            name: STATES[initial]
            for name, (_start, _stop, initial) in self._runs.items()
        }

    def _decode_preemptions(self) -> List[Preemption]:
        return self._events("pre")

    def _decode_rotations(self) -> List[Preemption]:
        return self._events("rot")

    def _decode_counters(self) -> Dict[str, List[Tuple[Time, float]]]:
        columns = self._columns
        offsets = columns["ctr_offsets"].tolist()
        times = columns["ctr_time"].tolist()
        values = columns["ctr_value"].tolist()
        return {
            name: [
                (times[i], values[i])
                for i in range(offsets[row], offsets[row + 1])
            ]
            for row, name in enumerate(columns["counter_names"].tolist())
        }

    def _events(self, prefix: str) -> List[Preemption]:
        names = self._names
        columns = self._columns
        return [
            (time, names[victim], names[victor], core)
            for time, victim, victor, core in zip(
                columns[f"{prefix}_time"].tolist(),
                columns[f"{prefix}_victim"].tolist(),
                columns[f"{prefix}_victor"].tolist(),
                columns[f"{prefix}_core"].tolist(),
            )
        ]


def load_trace(path: Union[str, Path]) -> ReplayTrace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`TraceFormatError` for truncated, corrupt, or
    wrong-schema files — callers that must not die on bad input (the
    :class:`TraceStore`) catch it and quarantine.
    """
    path = Path(path)
    return _load_trace_source(path, label=str(path))


def load_trace_bytes(data: bytes, *, label: str = "<bytes>") -> ReplayTrace:
    """Decode an in-memory trace payload (already checksum-verified)."""
    return _load_trace_source(io.BytesIO(data), label=label)


def _load_trace_source(
    source: Union[Path, IO[bytes]], *, label: str
) -> ReplayTrace:
    try:
        with np.load(source) as data:
            fmt = int(data["format"][0]) if "format" in data else -1
            if fmt != TRACE_SCHEMA_VERSION:
                raise TraceFormatError(
                    f"{label}: trace schema {fmt}, "
                    f"expected {TRACE_SCHEMA_VERSION}"
                )
            return _replay_from_columns(data)
    except TraceFormatError:
        raise
    except Exception as exc:
        raise TraceFormatError(f"{label}: unreadable trace ({exc!r})") from exc


#: Columns every trace file carries (``format`` is checked first).
_COLUMNS = (
    "span", "names", "thread_idx", "thread_initial",
    "tr_offsets", "tr_time", "tr_state", "mig_thread", "mig_count",
    "counter_names", "ctr_offsets", "ctr_time", "ctr_value", "meta_json",
    *(f"{prefix}_{field}" for prefix in ("pre", "rot")
      for field in ("time", "victim", "victor", "core")),
)


def _replay_from_columns(data: Any) -> ReplayTrace:
    """Read every column and check that the groups fit together.

    All decompression happens here, so a damaged member fails the load
    rather than a later query; the Python containers are built lazily
    by :class:`ReplayTrace`.
    """
    columns: Dict[str, np.ndarray] = {name: data[name] for name in _COLUMNS}
    for rows, offsets, values in (
        ("thread_idx", "tr_offsets", "tr_time"),
        ("counter_names", "ctr_offsets", "ctr_time"),
    ):
        bounds = columns[offsets].tolist()
        if bounds[:1] != [0] or bounds[-1] != len(columns[values]) or (
            len(bounds) != len(columns[rows]) + 1
        ):
            raise ValueError(f"{offsets} does not match {rows}/{values}")
    _check_codes(columns, len(columns["names"]), "thread_idx", "mig_thread",
                 "pre_victim", "pre_victor", "rot_victim", "rot_victor")
    _check_codes(columns, len(STATES), "tr_state", "thread_initial")
    return ReplayTrace(columns)


def _check_codes(
    columns: Dict[str, np.ndarray], limit: int, *keys: str
) -> None:
    """Every value of the ``keys`` index columns lies in ``[0, limit)``."""
    for key in keys:
        codes = columns[key]
        if codes.size and not 0 <= codes.min() <= codes.max() < limit:
            raise ValueError(f"{key} holds a code outside [0, {limit})")


def iter_traces(
    directory: Union[str, Path]
) -> Iterator[Tuple[Path, ReplayTrace]]:
    """Stream every readable trace under ``directory`` in path order.

    Unreadable files are skipped (with a warning), not fatal: one
    corrupt trace must not hide the rest of a recording campaign.
    """
    for path in sorted(Path(directory).rglob(f"*{TRACE_SUFFIX}")):
        if QUARANTINE_DIR in path.parts:
            continue
        try:
            yield path, load_trace(path)
        except TraceFormatError as exc:
            warnings.warn(str(exc), RuntimeWarning, stacklevel=2)


# ======================================================================
# Content digest (golden machinery)
# ======================================================================

def trace_digest(view: TraceView) -> Dict[str, object]:
    """Reduce a trace to its golden regression digest.

    The SHA-256 covers every recorded event in canonical form (state
    indices, ``repr``-exact counter floats), so it is identical for a
    live recorder and its round-tripped :class:`ReplayTrace` — drift
    means either the simulation or the file format changed.
    """
    canonical = {
        "schema": TRACE_SCHEMA_VERSION,
        "span": [view.start_time, view.end_time],
        "initial": {
            name: STATE_INDEX[state]
            for name, state in sorted(view.initial_states.items())
        },
        "transitions": {
            name: [[t, STATE_INDEX[s]] for t, s in view.transitions[name]]
            for name in sorted(view.transitions)
        },
        "preemptions": [list(e) for e in view.preemptions],
        "rotations": [list(e) for e in view.rotations],
        "migrations": dict(sorted(view.migrations.items())),
        "counters": {
            name: [[t, repr(v)] for t, v in view.counters[name]]
            for name in sorted(view.counters)
        },
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    transitions = sum(len(v) for v in view.transitions.values())
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "threads": len(view.transitions),
        "transitions": transitions,
        "preemptions": len(view.preemptions),
        "rotations": len(view.rotations),
        "migrations": sum(view.migrations.values()),
        "counter_samples": sum(len(v) for v in view.counters.values()),
        "span_ticks": view.end_time - view.start_time,
        "content_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


# ======================================================================
# Content-addressed store
# ======================================================================

class TraceStore:
    """Content-addressed trace files with quarantine, mirroring
    :class:`~repro.experiments.parallel.ResultCache`.

    Layout: ``<root>/<key[:2]>/<key>.trace.npz``.  Writes are atomic;
    unreadable entries are **quarantined** to ``<root>/quarantine/``
    (moved, not deleted, so a corruption bug stays inspectable) with a
    single warning per store instance, and ``load`` reports them as
    missing so the affected trace is simply re-recorded.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.report = StorageReport()
        self._q = Quarantine(
            self.root, label=f"trace-store at {self.root}", report=self.report
        )

    @property
    def quarantined(self) -> int:
        """Corrupt traces moved to quarantine by this store instance."""
        return self.report.quarantined

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{TRACE_SUFFIX}"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def save(
        self,
        key: str,
        view: TraceView,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        return save_trace(view, self.path_for(key), meta, report=self.report)

    def load(self, key: str) -> Optional[ReplayTrace]:
        path = self.path_for(key)
        data = verified_read(
            path, quarantine=self._q, expected_schema=TRACE_ENVELOPE_SCHEMA
        )
        if data is None:
            return None
        try:
            return load_trace_bytes(data, label=str(path))
        except TraceFormatError as exc:
            # Checksum-clean (or legacy, unverifiable) bytes that still
            # fail to decode: quarantine and treat as missing so the
            # affected trace is re-recorded.
            self._q.take(path, str(exc))
            return None

    def keys(self) -> List[str]:
        """Every stored trace key, sorted (quarantine excluded)."""
        return sorted(
            path.name[: -len(TRACE_SUFFIX)]
            for path in self.root.rglob(f"*{TRACE_SUFFIX}")
            if QUARANTINE_DIR not in path.parts
        )

    def iter_traces(self) -> Iterator[Tuple[str, ReplayTrace]]:
        """Stream (key, trace) pairs; corrupt entries are quarantined
        and skipped."""
        for key in self.keys():
            trace = self.load(key)
            if trace is not None:
                yield key, trace
