"""SignalCapturer log export: one columnar npz file per cohort.

The paper's repository ships the raw user-study logs for reanalysis
(Appendix A).  The fleet population engine does the same for the
synthetic population: one ``cohort-<index>.npz`` file per cohort shard
(see :func:`save_cohort_columns`), written by the cohort worker the
moment the shard finishes — population memory stays O(cohorts)
regardless of fleet size, and a million-device run streams its
per-second logs to disk instead of holding ~10^11 samples in RAM.  The
files are standard npz archives whose floating-point members are
stored, not deflated; :func:`iter_exported_logs` reads them back as
:class:`DeviceLog` objects for the analysis pipeline.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import IO, TYPE_CHECKING, Dict, Iterator, List, Optional, Union

import numpy as np

from ..storage import ZIP_COMMENT, Seal, StorageReport, publish_via
from .signalcapturer import DeviceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cohort import CohortColumns

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
