"""Atomic publish discipline: the only way an artifact reaches disk.

Every persistence surface in the repo — the result cache, the sweep
journals, the trace store, the cohort exports, the arena leaderboards —
ultimately boils down to "make these bytes appear at this path, all or
nothing, and survive a crash".  This module is the one answer:

1. stage the payload, sealed with its checksum envelope, in a temporary
   file **in the destination directory** (same filesystem, so the final
   rename cannot copy);
2. ``fsync`` the staged file, so the payload is durable before it
   becomes visible;
3. ``os.replace`` it into place — atomic on POSIX, so a reader (or a
   crashed writer) can only ever observe the old artifact or the new
   one, never a mixture;
4. ``fsync`` the destination *directory*, so the rename itself survives
   an OS crash (a step every hand-rolled copy in the repo skipped).

The staged-write path is also where storage-level chaos lands: a
:class:`~repro.faults.injector.FaultPlan` fault armed at
``storage:<surface>`` (kinds ``torn``/``crash``/``bitrot``/``enospc``/
``readonly``) is claimed exactly once through the injector's ledger and
applied here, deterministically, so ``repro chaos`` can prove that
every surface recovers from torn writes, lost renames, flipped bits,
full disks, and read-only directories (see ``docs/robustness.md``).

Lint rule REP111 rejects bare ``open(.., "w")``/``write_bytes``/
``write_text`` publishes inside the persistence scopes so new surfaces
cannot quietly regress to the old discipline.
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
import zlib
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Optional, TextIO, Union

from ..faults.injector import InjectedCrash, claim_storage_fault

if TYPE_CHECKING:  # pragma: no cover - envelope imports this module
    from .envelope import Seal

#: Suffix of staged (not yet published) files.  fsck treats a surviving
#: ``*.tmp`` file as an orphan: evidence of a writer that died between
#: staging and publish.
TMP_SUFFIX = ".tmp"

#: ``errno`` values that mean "this directory will never accept writes"
#: (as opposed to transient conditions like a full disk): callers
#: degrade to uncached operation instead of retrying.
READONLY_ERRNOS = frozenset({errno.EROFS, errno.EACCES, errno.EPERM})


@dataclass
class StorageReport:
    """What one store's durability layer observed (see docs/robustness.md).

    Every counter is a degradation or recovery event.  The stores read
    their ``quarantined`` count from here, and the ``repro chaos``
    storage scenarios check these counters to confirm that each
    injected fault was recovered from.
    """

    #: Artifacts published through the atomic discipline.
    published: int = 0
    #: Reads whose checksum envelope verified.
    verified: int = 0
    #: Corrupt artifacts moved to quarantine (never deleted).
    quarantined: int = 0
    #: Publishes that failed (full disk, injected crash, ...) without
    #: corrupting anything — the artifact simply was not published.
    publish_errors: int = 0
    #: Times a store disabled itself after a read-only directory error.
    readonly_fallbacks: int = 0
    #: Orphaned staging files removed while republishing an artifact.
    stale_tmp_pruned: int = 0


def is_readonly_error(exc: OSError) -> bool:
    """True when ``exc`` means the directory will never accept writes."""
    return isinstance(exc, PermissionError) or exc.errno in READONLY_ERRNOS


def fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (makes a rename durable).

    Best-effort: some filesystems (and all of Windows) refuse to open a
    directory, in which case the rename is as durable as the platform
    allows and the publish proceeds.
    """
    with suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    hasher = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def _flip_byte(path: Path) -> None:
    """Deterministic bit-rot: XOR the artifact's middle byte in place."""
    size = path.stat().st_size
    if size == 0:
        return
    offset = size // 2
    with path.open("r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
        fh.flush()
        os.fsync(fh.fileno())


def prune_stale_tmp(
    path: Path, report: Optional[StorageReport] = None
) -> int:
    """Remove leftover staging files of earlier publishes of ``path``.

    A writer that died between staging and publish leaves
    ``<name><random>.tmp`` behind; the next successful publish of the
    same artifact sweeps them so a recovered store needs no manual
    cleanup.  Returns the number pruned.
    """
    pruned = 0
    with suppress(OSError):
        for stale in path.parent.glob(f"{path.name}*{TMP_SUFFIX}"):
            with suppress(OSError):
                stale.unlink()
                pruned += 1
    if report is not None:
        report.stale_tmp_pruned += pruned
    return pruned


def publish_via(
    path: Union[str, Path],
    fill: Callable[[IO[bytes]], None],
    *,
    surface: Optional[str] = None,
    do_fsync: bool = True,
    report: Optional[StorageReport] = None,
    digest: Optional[str] = None,
    seal: Optional["Seal"] = None,
) -> str:
    """Publish whatever ``fill`` writes into a staged handle, sealed
    with ``seal``'s envelope if given; returns the payload's SHA-256.

    This is the streaming entry point (npz writers need a real
    seekable file, so hashing happens by re-reading the staged file —
    one warm sequential read), unless the caller passes the ``digest``
    of what ``fill`` writes (:func:`publish_bytes`).  The envelope
    trailer (:mod:`repro.storage.envelope`) goes into the staged file
    after that hash and before its fsync, so one ``os.replace``
    publishes artifact and envelope together.  On any error the staged
    file is removed: a failed publish leaves **nothing** behind.

    ``surface`` names the storage fault point (``storage:<surface>``)
    for the chaos harness; ``None`` opts out of fault injection.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=TMP_SUFFIX
    )
    tmp: Optional[Path] = Path(tmp_name)
    try:
        with os.fdopen(fd, "w+b") as fh:
            fill(fh)
            if seal is not None:
                seal.prepare(fh)
            fh.flush()
            if digest is None:
                digest = _file_sha256(Path(tmp_name))
            if seal is not None:
                fh.write(seal.trailer(digest, fh.seek(0, os.SEEK_END)))
                fh.flush()
            if do_fsync:
                os.fsync(fh.fileno())
        fault = claim_storage_fault(surface)
        if fault == "enospc":
            raise OSError(
                errno.ENOSPC, "injected ENOSPC during publish", str(path)
            )
        if fault == "readonly":
            raise PermissionError(
                errno.EROFS, "injected read-only directory", str(path)
            )
        if fault == "crash":
            # A process death between staging and os.replace: the tmp
            # file survives as an orphan, the artifact never appears.
            tmp = None
            raise InjectedCrash(
                f"injected crash before publish of {path}"
            )
        if fault == "torn":
            # A torn write: the rename lands but the file's tail — the
            # envelope with it — was lost, so readers refuse the file.
            os.truncate(tmp_name, max(1, os.path.getsize(tmp_name) // 2))
        os.replace(tmp_name, path)
        tmp = None
        if do_fsync:
            fsync_dir(path.parent)
        if fault == "bitrot":
            _flip_byte(path)
        prune_stale_tmp(path, report)
        if report is not None:
            report.published += 1
        return digest
    finally:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)


def publish_bytes(
    path: Union[str, Path],
    data: bytes,
    *,
    surface: Optional[str] = None,
    do_fsync: bool = True,
    report: Optional[StorageReport] = None,
    seal: Optional["Seal"] = None,
) -> str:
    """Atomically publish ``data`` (sealed with ``seal``'s envelope, if
    given) at ``path``; returns its SHA-256, taken from ``data`` in
    memory rather than read back from disk."""
    return publish_via(
        path, lambda fh: fh.write(data) and None,  # type: ignore[func-returns-value]
        surface=surface, do_fsync=do_fsync, report=report,
        digest=sha256_hex(data), seal=seal,
    )


# ----------------------------------------------------------------------
# Journal streams (append-only surfaces)
# ----------------------------------------------------------------------

def open_journal(
    path: Union[str, Path], *, fresh: bool
) -> TextIO:
    """Open an append-only journal stream through the durability layer.

    Journals are the one surface that cannot use publish-by-replace
    (they grow a record at a time), so their discipline is different:
    per-record CRCs catch torn tails, and the caller fsyncs the header
    and the close via :func:`fsync_handle`.  ``fresh=True`` truncates;
    ``fresh=False`` appends.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "w" if fresh else "a"
    return path.open(mode, encoding="utf-8")


def record_crc(payload: str) -> str:
    """CRC-32 (hex) of one journal record's payload.

    Cheap enough to compute per record on the write path, strong enough
    to reject a torn tail: a record whose stored CRC does not match was
    cut mid-write and resume must skip exactly that record.
    """
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


def fsync_handle(fh: TextIO) -> None:
    """Flush and fsync an open journal stream (durable up to here).

    Best-effort on exotic handles without a real descriptor (tests pass
    StringIO); a handle that cannot fsync is as durable as flush gets.
    """
    fh.flush()
    with suppress(OSError, ValueError, AttributeError):
        os.fsync(fh.fileno())
