"""Columnar on-disk trace store: record once, analyze many times.

The paper's own method captures Perfetto traces once and mines them
repeatedly for Tables 4-5 and Figures 13-14; this module gives the
simulator the same split.  A trace is held in one column layout from
record to replay: a :class:`~repro.trace.recorder.TraceRecorder` builds
the column groups below (:data:`~repro.trace.view.EVENT_COLUMNS`),
:func:`save_trace` writes them as one compact ``.trace.npz`` file
(atomically, like the cohort exporter), and :class:`ReplayTrace` serves
the loaded members as a :class:`~repro.trace.view.TraceView` — so every
query in :mod:`repro.trace.analysis` runs over the recorded file
**without re-simulating**, bit-identical to the live recorder.

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

from ..sim.clock import Time
from ..storage import (
    Quarantine,
    StorageReport,
    publish_via,
    verified_read,
    write_sidecar,
)
from .view import EVENT_COLUMNS, STATES, TraceView

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
    events = view.columns
    columns = {
        "format": np.array([TRACE_SCHEMA_VERSION], dtype=np.int64),
        "span": np.array([view.start_time, view.end_time], dtype=np.int64),
        **{key: events[key] for key in EVENT_COLUMNS},
        "meta_json": np.array(
            [json.dumps(meta or {}, sort_keys=True)], dtype=np.str_
        ),
    }

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


class ReplayTrace(TraceView):
    """A recorded trace loaded from disk: its columns plus metadata.

    :attr:`columns` are the file's members as loaded, so the queries in
    :mod:`repro.trace.analysis` read the same int64/int8 values they
    read from the live recorder the file was saved from, and answer
    bit-identically.
    """

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        span = columns["span"].tolist()
        self.start_time = span[0]
        self._end_time: Time = span[1]
        self._columns = columns
        offsets = columns["ctr_offsets"].tolist()
        times = columns["ctr_time"].tolist()
        values = columns["ctr_value"].tolist()
        self.counters = {
            name: [
                (times[i], values[i])
                for i in range(offsets[row], offsets[row + 1])
            ]
            for row, name in enumerate(columns["counter_names"].tolist())
        }
        meta = json.loads(str(columns["meta_json"][0]))
        #: Free-form metadata recorded at save time (spec digest, ...).
        self.meta: Dict[str, Any] = meta if isinstance(meta, dict) else {}

    @property
    def end_time(self) -> Time:
        return self._end_time

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        return self._columns


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
_COLUMNS = ("span", *EVENT_COLUMNS, "meta_json")


def _replay_from_columns(data: Any) -> ReplayTrace:
    """Read every column and check that the groups fit together.

    All decompression happens here, so a damaged member fails the load
    rather than a later query.
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
    codes, thread names, ``repr``-exact counter floats), so it is
    identical for a live recorder and its round-tripped
    :class:`ReplayTrace` — drift means either the simulation or the
    file format changed.
    """
    columns = view.columns
    names = columns["names"].tolist()
    threads = {name: view.thread_columns(name) for name in view.thread_names()}
    ctr_offsets = columns["ctr_offsets"].tolist()
    ctr_time = columns["ctr_time"].tolist()
    ctr_value = columns["ctr_value"].tolist()

    def rows(prefix: str) -> List[List[object]]:
        return [
            [time, names[victim], names[victor], core]
            for time, victim, victor, core in zip(
                *(columns[f"{prefix}_{field}"].tolist()
                  for field in ("time", "victim", "victor", "core"))
            )
        ]

    migrations = view.migrations
    canonical = {
        "schema": TRACE_SCHEMA_VERSION,
        "span": [view.start_time, view.end_time],
        "initial": {name: run.initial for name, run in threads.items()},
        "transitions": {
            name: [
                list(pair)
                for pair in zip(run.times.tolist(), run.states.tolist())
            ]
            for name, run in threads.items()
        },
        "preemptions": rows("pre"),
        "rotations": rows("rot"),
        "migrations": migrations,
        "counters": {
            name: [
                [ctr_time[i], repr(ctr_value[i])]
                for i in range(ctr_offsets[row], ctr_offsets[row + 1])
            ]
            for row, name in enumerate(columns["counter_names"].tolist())
        },
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "threads": len(threads),
        "transitions": view.transition_count,
        "preemptions": len(columns["pre_time"]),
        "rotations": len(columns["rot_time"]),
        "migrations": sum(migrations.values()),
        "counter_samples": len(ctr_time),
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
