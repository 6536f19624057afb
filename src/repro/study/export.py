"""SignalCapturer log export/import.

The paper's repository ships the raw user-study logs for reanalysis
(Appendix A).  This module does the same for the synthetic population:
each device serialises to one gzipped JSON-lines file — a metadata
record, one record per downsampled memory sample, and one per signal —
and round-trips back into :class:`DeviceLog` for the analysis pipeline.

Samples are stored at a configurable stride (default every sample) so
full populations stay shareable; signals are always stored exactly.

The fleet population engine adds a second, columnar format: one
``cohort-<index>.npz`` file per cohort shard (see
:func:`save_cohort_columns`), written by the cohort worker the moment
the shard finishes — population memory stays O(cohorts) regardless of
fleet size, and a million-device run streams its per-second logs to
disk instead of holding ~10^11 samples in RAM.  The files are standard
npz archives whose floating-point members are stored, not deflated.
"""

from __future__ import annotations

import gzip
import io
import json
import zipfile
from pathlib import Path
from typing import IO, TYPE_CHECKING, Dict, Iterator, List, Optional, Union

import numpy as np

from ..storage import (
    GZIP_MEMBER,
    ZIP_COMMENT,
    Seal,
    StorageReport,
    publish_via,
)
from .signalcapturer import DeviceInfo, DeviceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cohort import CohortColumns

FORMAT_VERSION = 1


def save_device_log(
    log: DeviceLog,
    path: Union[str, Path],
    sample_stride: int = 1,
) -> Path:
    """Write one device's log as gzipped JSONL (atomic); returns the path.

    Published through :mod:`repro.storage` with a checksum envelope
    sealed in a final, empty gzip member (``gzip.open`` and ``zcat``
    read past it), and gzipped with a zeroed mtime so identical logs
    produce identical bytes (the envelope digest is then reproducible
    too).
    """
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    path = Path(path)

    def fill(raw: IO[bytes]) -> None:
        with gzip.GzipFile(
            fileobj=raw, mode="wb", filename="", mtime=0
        ) as gz:
            fh = io.TextIOWrapper(gz, encoding="utf-8")
            header = {
                "type": "meta",
                "version": FORMAT_VERSION,
                "device_id": log.info.device_id,
                "manufacturer": log.info.manufacturer,
                "total_mb": log.info.total_mb,
                "android_version": log.info.android_version,
                "n_cores": log.info.n_cores,
                "n_samples": len(log.timestamps),
                "sample_stride": sample_stride,
            }
            fh.write(json.dumps(header) + "\n")
            for i in range(0, len(log.timestamps), sample_stride):
                record = {
                    "type": "sample",
                    "t": int(log.timestamps[i]),
                    "avail_mb": round(float(log.available_mb[i]), 2),
                    "state": int(log.state[i]),
                    "interactive": bool(log.interactive[i]),
                    "services": int(log.n_services[i]),
                }
                fh.write(json.dumps(record) + "\n")
            for t, code in log.signals:
                fh.write(
                    json.dumps({"type": "signal", "t": t, "state": code})
                    + "\n"
                )
            fh.flush()
            fh.detach()

    seal = Seal("study-export", f"v{FORMAT_VERSION}/device-log", GZIP_MEMBER)
    publish_via(path, fill, surface="study-export", seal=seal)
    return path


def load_device_log(path: Union[str, Path]) -> DeviceLog:
    """Read a log written by :func:`save_device_log`."""
    path = Path(path)
    samples = []
    signals = []
    header = None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            kind = record.pop("type")
            if kind == "meta":
                header = record
            elif kind == "sample":
                samples.append(record)
            elif kind == "signal":
                signals.append((record["t"], record["state"]))
            else:
                raise ValueError(f"unknown record type {kind!r} in {path}")
    if header is None:
        raise ValueError(f"{path} has no meta record")
    if header["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported log version {header['version']}")
    info = DeviceInfo(
        device_id=header["device_id"],
        manufacturer=header["manufacturer"],
        total_mb=header["total_mb"],
        android_version=header["android_version"],
        n_cores=header["n_cores"],
    )
    return DeviceLog(
        info=info,
        timestamps=np.array([s["t"] for s in samples], dtype=np.int64),
        available_mb=np.array([s["avail_mb"] for s in samples], dtype=np.float32),
        state=np.array([s["state"] for s in samples], dtype=np.int8),
        interactive=np.array([s["interactive"] for s in samples], dtype=bool),
        n_services=np.array([s["services"] for s in samples], dtype=np.int16),
        signals=signals,
    )


def save_population(
    population: List[DeviceLog],
    directory: Union[str, Path],
    sample_stride: int = 1,
) -> List[Path]:
    """Write every device's log into ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [
        save_device_log(
            log, directory / f"{log.info.device_id}.jsonl.gz", sample_stride
        )
        for log in population
    ]


def load_population(directory: Union[str, Path]) -> List[DeviceLog]:
    """Read every ``*.jsonl.gz`` log in ``directory``, sorted by name."""
    directory = Path(directory)
    return [
        load_device_log(path)
        for path in sorted(directory.glob("*.jsonl.gz"))
    ]


# ======================================================================
# Columnar cohort export (fleet population engine)
# ======================================================================

#: npz format stamp; a mismatch on load is an error, not a guess.
COHORT_FORMAT_VERSION = 1

_COLUMN_FIELDS = (
    "device_index",
    "total_mb",
    "manufacturer_idx",
    "android_idx",
    "cores_idx",
    "n",
    "offsets",
    "available_mb",
    "state",
    "interactive",
    "n_services",
    "sig_offsets",
    "sig_times",
    "sig_codes",
)


def _write_npz(fh: IO[bytes], arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as npz members, in order, into ``fh``.

    Floating-point members are stored, every other member is deflated
    at zlib level 1.  Float mantissas are noise: on a 1,024-device
    cohort deflate shrinks the float32 AR walk by only ~14%, at several
    times the cost of every other column together.  The integer and
    bool columns are long runs, which level 1 already shrinks 30-700x;
    zlib's default level 6 took nearly 5x as long to make them 28%
    smaller, a 0.4% smaller file.  Deflated members are opened by name, so they
    take the archive's method and level; stored ones through an explicit
    ``ZipInfo``.  Either way each member gets the ``ZipInfo`` default
    timestamp, the fixed 1980 one ``np.savez`` uses, so equal columns
    give equal bytes.
    """
    with zipfile.ZipFile(
        fh, mode="w", compression=zipfile.ZIP_DEFLATED, compresslevel=1,
        allowZip64=True,
    ) as archive:
        for name, value in arrays.items():
            target: Union[str, zipfile.ZipInfo] = name + ".npy"
            if np.issubdtype(value.dtype, np.floating):
                target = zipfile.ZipInfo(name + ".npy")
                target.compress_type = zipfile.ZIP_STORED
            with archive.open(target, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)


def save_cohort_columns(
    columns: "CohortColumns",
    path: Union[str, Path],
    *,
    report: Optional[StorageReport] = None,
) -> Path:
    """Write one cohort's columns as an npz file (atomic).

    The layout mirrors :class:`~repro.study.cohort.CohortColumns`
    exactly (struct-of-arrays, flat per-device prefixes addressed by
    ``offsets``) plus a format stamp.  Floating-point members are
    stored and the rest deflated (see :func:`_write_npz`); any npz
    reader reads the file, and :func:`load_cohort_columns` still reads
    older exports deflated throughout.  Published through
    :mod:`repro.storage` — staged, fsynced, renamed into place, and
    sealed with a checksum envelope in the archive comment — so a
    killed worker never leaves a half-written cohort file for
    ``--resume`` to trip over, and a torn or bit-rotted shard is caught
    by ``repro fsck`` instead of silently skewing the reanalysis.
    """
    path = Path(path)
    arrays = {name: getattr(columns, name) for name in _COLUMN_FIELDS}
    arrays["format"] = np.array([COHORT_FORMAT_VERSION], dtype=np.int64)

    publish_via(
        path,
        lambda fh: _write_npz(fh, arrays),
        surface="study-export",
        report=report,
        seal=Seal("study-export", f"v{COHORT_FORMAT_VERSION}/cohort-columns",
                  ZIP_COMMENT),
    )
    return path


def load_cohort_columns(path: Union[str, Path]) -> "CohortColumns":
    """Read one cohort npz back into
    :class:`~repro.study.cohort.CohortColumns`."""
    from .cohort import CohortColumns

    with np.load(Path(path)) as data:
        fmt = int(data["format"][0]) if "format" in data else -1
        if fmt != COHORT_FORMAT_VERSION:
            raise ValueError(
                f"{path}: cohort export format {fmt}, "
                f"expected {COHORT_FORMAT_VERSION}"
            )
        return CohortColumns(
            **{name: data[name] for name in _COLUMN_FIELDS}
        )


def exported_cohort_paths(export_dir: Union[str, Path]) -> List[Path]:
    """The cohort files of an export directory, in cohort order.

    Sorted by the parsed index, not the name: ``cohort-%05d`` widens
    past 99,999, and ``cohort-100000`` sorts before ``cohort-00000`` as
    a string.
    """
    return sorted(
        Path(export_dir).glob("cohort-*.npz"),
        key=lambda path: int(path.stem.split("-", 1)[1]),
    )


def iter_exported_logs(export_dir: Union[str, Path]) -> Iterator[DeviceLog]:
    """Stream ``DeviceLog`` objects from an export directory.

    Materializes one cohort at a time, so peak memory stays at one
    cohort's worth of per-second arrays no matter the fleet size.
    """
    from .cohort import columns_to_logs

    for path in exported_cohort_paths(export_dir):
        yield from columns_to_logs(load_cohort_columns(path))
