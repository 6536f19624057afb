"""Columnar on-disk trace store: record once, analyze many times.

The paper's own method captures Perfetto traces once and mines them
repeatedly for Tables 4-5 and Figures 13-14; this module gives the
simulator the same split.  A trace is held in one column layout from
record to replay: a :class:`~repro.trace.recorder.TraceRecorder` builds
the ``names`` table and :data:`~repro.trace.view.EVENT_COLUMNS`,
:func:`save_trace` writes them as one compact ``.trace.npz`` file
(atomically, like the cohort exporter), and :class:`ReplayTrace` serves
them back as a :class:`~repro.trace.view.TraceView` — so every query in
:mod:`repro.trace.analysis` runs over the recorded file **without
re-simulating**, bit-identical to the live recorder.

Traces are content-addressed by ``(session spec digest, trace schema
version)`` via :func:`trace_key`, extending the result cache's
machinery: a :class:`TraceStore` lays files out exactly like
:class:`~repro.experiments.parallel.ResultCache` (two-level fan-out,
atomic writes, corrupt entries quarantined — moved, never deleted) and
the golden-digest suite locks the format with :func:`trace_digest`.

Format (schema-versioned; a mismatch on load is an error, not a guess):
five npz members, as numpy reads each through its own zip entry and
``.npy`` header.  Each column is the next slice of its dtype group.

==============  ========================================================
``format``      ``[TRACE_SCHEMA_VERSION]``, read and checked first
``layout``      one JSON string: ``names`` (the global string table of
                threads and preemption actors), ``span`` (``[start_time,
                end_time]`` in ticks), ``meta`` (free-form session
                metadata) and ``columns``, the ``(column, dtype,
                length)`` of every numeric column in file order
``int64``       ``tr_offsets``, ``tr_time``, ``mig_count``,
                ``pre_time``, ``rot_time``, end to end
``int32``       ``thread_idx``, ``mig_thread`` and the ``pre_*`` /
                ``rot_*`` victim, victor and core columns
``int8``        ``thread_initial``, ``tr_state`` (state codes)
==============  ========================================================
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import warnings
from pathlib import Path
from typing import (IO, Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple, TypeVar, Union)

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
TRACE_SCHEMA_VERSION = 2

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
    """Write one trace as compressed npz members (atomic): the numeric
    columns end to end in one member per dtype, each one's dtype and
    length in ``layout``.

    Publishes through :mod:`repro.storage` (tmp + fsync + ``os.replace``
    + directory fsync), so a killed recorder never leaves a half-written
    trace for replay, and records a checksum envelope sidecar so a torn
    or bit-rotted trace is quarantined on read, never analyzed.
    """
    path = Path(path)
    events = view.columns
    entries: List[Tuple[str, str, int]] = []
    groups: Dict[str, List[np.ndarray]] = {}
    for name, column in events.items():
        if name != "names":
            entries.append((name, column.dtype.name, len(column)))
            groups.setdefault(column.dtype.name, []).append(column)
    layout = {
        "names": events["names"].tolist(),
        "span": [view.start_time, view.end_time],
        "meta": meta or {},
        "columns": entries,
    }
    members = {
        "format": np.array([TRACE_SCHEMA_VERSION], dtype=np.int64),
        "layout": np.array([json.dumps(layout, sort_keys=True)], dtype=np.str_),
        **{dtype: np.concatenate(parts) for dtype, parts in groups.items()},
    }

    def fill(fh: IO[bytes]) -> None:
        np.savez_compressed(fh, **members)

    digest = publish_via(path, fill, surface="trace-store", report=report)
    write_sidecar(
        path,
        kind="trace-store",
        schema=TRACE_ENVELOPE_SCHEMA,
        digest=digest,
        size=path.stat().st_size,
    )
    return path


class TraceHeader(NamedTuple):
    """What a trace file holds apart from its numeric groups."""

    start_time: Time
    end_time: Time
    #: The global string table (threads and preemption actors).
    names: List[str]
    #: Free-form metadata recorded at save time (spec digest, ...).
    meta: Dict[str, Any]
    #: (column, dtype, length) of every numeric column, in file order.
    layout: List[Tuple[str, str, int]]

    def length(self, column: str) -> int:
        return next(n for name, _, n in self.layout if name == column)


class ReplayTrace(TraceView):
    """A recorded trace loaded from disk: its columns plus metadata.

    :attr:`columns` are slices of the file's dtype groups, so the
    queries in :mod:`repro.trace.analysis` read the same int64/int32/int8
    values they read from the live recorder the file was saved from,
    and answer bit-identically.
    """

    def __init__(self, columns: Dict[str, np.ndarray], header: TraceHeader) -> None:
        self.start_time = header.start_time
        self._end_time: Time = header.end_time
        self._columns = columns
        #: Free-form metadata recorded at save time (spec digest, ...).
        self.meta: Dict[str, Any] = header.meta

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
    return _decode(path, str(path), _replay_from_columns)


_T = TypeVar("_T")


def _decode(source: Union[Path, IO[bytes]], label: str,
            read: Callable[[Any, TraceHeader], _T]) -> _T:
    """Open a trace file, read its header, then ``read(members, header)``."""
    try:
        with np.load(source) as data:
            return read(data, _read_header(data, label))
    except TraceFormatError:
        raise
    except Exception as exc:
        raise TraceFormatError(f"{label}: unreadable trace ({exc!r})") from exc


#: The numeric group members, one per dtype.
_GROUPS = tuple(dict.fromkeys(EVENT_COLUMNS.values()))

#: Columns of one row each, which must all have the same length.
_ROWS = (("thread_idx", "thread_initial"), ("tr_time", "tr_state"),
         ("mig_thread", "mig_count"),
         *((f"{p}_time", f"{p}_victim", f"{p}_victor", f"{p}_core")
           for p in ("pre", "rot")))


def _read_header(data: Any, label: str) -> TraceHeader:
    """Check ``format``, then decode and check ``layout``; reads no
    numeric group."""
    fmt = int(data["format"][0]) if "format" in data else -1
    if fmt != TRACE_SCHEMA_VERSION:
        raise TraceFormatError(
            f"{label}: trace schema {fmt}, expected {TRACE_SCHEMA_VERSION}"
        )
    layout = json.loads(str(data["layout"][0]))
    start, end = layout["span"]
    names, meta = layout["names"], layout["meta"]
    if not (type(start) is type(end) is int and isinstance(meta, dict)
            and isinstance(names, list)
            and all(isinstance(name, str) for name in names)):
        raise ValueError("layout span, names or meta malformed")
    entries = [(name, dtype, length) for name, dtype, length in layout["columns"]]
    lengths = {name: length for name, _, length in entries}
    if sorted(name for name, _, _ in entries) != sorted(EVENT_COLUMNS):
        raise ValueError("layout does not name every trace column once")
    for name, dtype, length in entries:
        if dtype != EVENT_COLUMNS[name] or type(length) is not int or length < 0:
            raise ValueError(f"layout has {name} as {dtype}[{length}], "
                             f"expected {EVENT_COLUMNS[name]}")
    for row in _ROWS:
        if len({lengths[name] for name in row}) != 1:
            raise ValueError(f"columns {', '.join(row)} differ in length")
    return TraceHeader(start, end, names, meta, entries)


def _replay_from_columns(data: Any, header: TraceHeader) -> ReplayTrace:
    """Slice every column out of its dtype group and check that the
    columns fit together: all decompression happens here, so a damaged
    member fails the load rather than a later query."""
    columns: Dict[str, np.ndarray] = {
        "names": np.array(header.names, dtype=np.str_)
    }
    groups = {dtype: data[dtype] for dtype in _GROUPS}
    used = dict.fromkeys(groups, 0)
    for name, dtype, length in header.layout:
        start = used[dtype]
        used[dtype] = start + length
        columns[name] = groups[dtype][start:start + length]
    for dtype, group in groups.items():
        if group.dtype != dtype or group.shape != (used[dtype],):
            raise ValueError(f"{dtype} group is {group.dtype}"
                             f"{list(group.shape)}, layout says {used[dtype]}")
    bounds = columns["tr_offsets"].tolist()
    if bounds[:1] != [0] or bounds[-1] != len(columns["tr_time"]) or (
        len(bounds) != len(columns["thread_idx"]) + 1
    ):
        raise ValueError("tr_offsets does not match thread_idx/tr_time")
    _check_codes(columns, len(columns["names"]), "thread_idx", "mig_thread",
                 "pre_victim", "pre_victor", "rot_victim", "rot_victor")
    _check_codes(columns, len(STATES), "tr_state", "thread_initial")
    return ReplayTrace(columns, header)


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
    codes, thread names, int ticks), so it is
    identical for a live recorder and its round-tripped
    :class:`ReplayTrace` — drift means either the simulation or the
    file format changed.
    """
    columns = view.columns
    names = columns["names"].tolist()
    threads = {name: view.thread_columns(name) for name in view.thread_names()}

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
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "threads": len(threads),
        "transitions": view.transition_count,
        "preemptions": len(columns["pre_time"]),
        "rotations": len(columns["rot_time"]),
        "migrations": sum(migrations.values()),
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
        return self._read(key, _replay_from_columns)

    def _read(
        self, key: str, read: Callable[[Any, TraceHeader], _T]
    ) -> Optional[_T]:
        path = self.path_for(key)
        data = verified_read(
            path, quarantine=self._q, expected_schema=TRACE_ENVELOPE_SCHEMA
        )
        if data is None:
            return None
        try:
            return _decode(io.BytesIO(data), str(path), read)
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

    def iter_headers(self) -> Iterator[Tuple[str, TraceHeader]]:
        """Stream (key, header) pairs, decoding only each file's
        ``format`` and ``layout`` after its envelope check; corrupt or
        wrong-schema entries are quarantined and skipped."""
        for key in self.keys():
            header = self._read(key, lambda _data, header: header)
            if header is not None:
                yield key, header
