"""Checksum envelopes sealed inside every stored artifact, and
graceful-degradation reads.

An **envelope** records what an artifact claimed to be at publish time:
kind, schema tag, size and the SHA-256 of its bytes.  It is a binary
trailer sealed into the artifact's own file, where the file's format
ignores it, so ``pickle.loads`` and ``np.load`` read a sealed file
unchanged.  Its placement (:class:`Seal`) depends on the file type:
``RAW`` appends it (result-cache pickles), and ``ZIP_COMMENT`` makes it
the zip archive comment (trace and cohort npz files).  The trailer,
parsed from its end::

    kind | schema | sha256 (32 bytes) | size u64 | len(kind) u16
         | len(schema) u16 | crc32 u32 | version u16 | MAGIC

The SHA-256 covers the ``size`` bytes before the trailer (for a zip,
including the comment length that announces it) and the CRC-32 the
trailer up to itself, so no flipped byte anywhere in the file verifies.
The writer stages payload and trailer in one file and publishes it with
one ``os.replace`` (:func:`~repro.storage.atomic.publish_via`), so the
possible on-disk states after any crash are two: no artifact, or a
whole one.

:func:`verified_read` is the read half of the discipline: parse the
trailer, check size, then digest, then schema, and on any failure hand
the artifact to a :class:`Quarantine` — moved, never deleted, one
warning per store, counted — and report a miss so the caller
recomputes.  A checksum or schema problem is **never** raised to the
caller; the only exceptions out of this module are programming errors.
"""

from __future__ import annotations

import itertools
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union

from .atomic import StorageReport, sha256_hex

#: Version of the trailer format itself (not of the artifact's schema);
#: 1 was a JSON sidecar file next to the artifact.
ENVELOPE_VERSION = 2

#: Directory name (under a store root) where corrupt artifacts go.
QUARANTINE_DIR = "quarantine"

#: Trailer placements (see the module docstring).
RAW = "raw"
ZIP_COMMENT = "zip-comment"

#: The last bytes of every trailer record.
MAGIC = b"REPROENV"

#: sha256, size, len(kind), len(schema): the fields the CRC covers.
_FIELDS = struct.Struct("<32sQHH")
#: crc32, version, magic.
_CLOSE = struct.Struct("<IH8s")
_FIXED = _FIELDS.size + _CLOSE.size

#: A zip end-of-central-directory record without a comment.
_EOCD = 22


class IntegrityError(RuntimeError):
    """An artifact's bytes do not match its envelope; ``problem`` is
    how ``repro fsck`` reports it (``bad-envelope``: no well-formed
    trailer, ``checksum-mismatch`` or ``schema-drift``)."""

    def __init__(self, detail: str, problem: str = "bad-envelope") -> None:
        super().__init__(detail)
        self.problem = problem


@dataclass(frozen=True)
class Envelope:
    """The parsed contents of one artifact's trailer."""

    kind: str
    schema: str
    sha256: str
    size: int


@dataclass(frozen=True)
class Seal:
    """What a writer knows of its artifact's envelope before the payload
    exists; :func:`~repro.storage.atomic.publish_via` applies it."""

    kind: str
    schema: str
    placement: str = RAW

    def prepare(self, fh: IO[bytes]) -> None:
        """Before the staged payload is hashed: give a zip payload's
        comment the trailer's length, so the digest covers it."""
        if self.placement != ZIP_COMMENT:
            return
        end = fh.seek(0, os.SEEK_END)
        fh.seek(end - _EOCD)
        record = fh.read(_EOCD)
        if record[:4] != b"PK\x05\x06" or record[-2:] != b"\0\0":
            raise ValueError("payload does not end in a comment-free zip")
        fh.seek(end - 2)
        fh.write(struct.pack("<H", len(self.trailer(bytes(32).hex(), 0))))
        fh.seek(end)

    def trailer(self, sha256: str, size: int) -> bytes:
        """The bytes that follow a ``size``-byte payload hashing to
        ``sha256`` (hex)."""
        kind, schema = self.kind.encode(), self.schema.encode()
        body = kind + schema + _FIELDS.pack(
            bytes.fromhex(sha256), size, len(kind), len(schema)
        )
        return body + _CLOSE.pack(zlib.crc32(body), ENVELOPE_VERSION, MAGIC)


def verify(data: bytes, expected_schema: Optional[str] = None) -> Envelope:
    """Check ``data`` against the envelope sealed at its end: trailer,
    size, digest, then schema; raises :class:`IntegrityError`."""
    end = len(data)
    if end < _FIXED or data[end - len(MAGIC):end] != MAGIC:
        raise IntegrityError("no envelope trailer")
    crc, version, _magic = _CLOSE.unpack_from(data, end - _CLOSE.size)
    if version != ENVELOPE_VERSION:
        raise IntegrityError(f"unsupported envelope version {version}")
    fields = end - _FIXED
    digest, size, kind_len, schema_len = _FIELDS.unpack_from(data, fields)
    start = fields - kind_len - schema_len
    view = memoryview(data)
    if start < 0 or zlib.crc32(view[start:fields + _FIELDS.size]) != crc:
        raise IntegrityError("malformed envelope: trailer CRC mismatch")
    try:
        kind = data[start:start + kind_len].decode()
        schema = data[start + kind_len:fields].decode()
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"malformed envelope: {exc}") from exc
    if not (kind + schema).isprintable():
        raise IntegrityError("malformed envelope: kind or schema is not text")
    if size != start or digest.hex() != sha256_hex(view[:start]):
        raise IntegrityError(
            f"checksum mismatch (have {start} bytes, envelope says {size})",
            "checksum-mismatch",
        )
    if expected_schema is not None and schema != expected_schema:
        raise IntegrityError(
            f"schema drift ({schema!r} != {expected_schema!r})",
            "schema-drift",
        )
    return Envelope(kind, schema, digest.hex(), size)


class Quarantine:
    """Where corrupt artifacts go to be inspected, not deleted.

    One instance per store.  The first quarantined artifact emits a
    single :class:`RuntimeWarning` naming the directory; subsequent
    ones are silent (a damaged store should not drown the run in
    warnings), but every move increments the shared
    :class:`~repro.storage.atomic.StorageReport`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        label: str,
        report: Optional[StorageReport] = None,
    ) -> None:
        self.root = Path(root)
        self.label = label
        self.report = report if report is not None else StorageReport()
        self._warned = False

    @property
    def directory(self) -> Path:
        return self.root / QUARANTINE_DIR

    @property
    def count(self) -> int:
        return self.report.quarantined

    def take(self, artifact: Union[str, Path], reason: str) -> None:
        """Move ``artifact`` into quarantine under a fresh name: its
        own, else ``<stem>.1.<suffixes>``, ``<stem>.2...`` — a repeat
        never overwrites earlier evidence."""
        artifact = Path(artifact)
        self.directory.mkdir(parents=True, exist_ok=True)
        stem, dot, suffixes = artifact.name.partition(".")
        for n in itertools.count():
            name = f"{stem}.{n}{dot}{suffixes}" if n else artifact.name
            dest = self.directory / name
            try:  # reserve the name: O_EXCL never opens an existing file
                os.close(os.open(dest, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                continue
        try:
            os.replace(artifact, dest)
        except OSError:  # gone already (or unmovable): nothing taken
            dest.unlink()
            return
        self.report.quarantined += 1
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"{self.label}: quarantined corrupt artifact "
                f"{artifact.name} ({reason}); moved to {self.directory}",
                RuntimeWarning,
                stacklevel=3,
            )


def verified_read(
    artifact: Union[str, Path],
    *,
    quarantine: Quarantine,
    expected_schema: Optional[str] = None,
) -> Optional[bytes]:
    """Read an artifact's bytes iff they match their envelope.

    Returns the whole file, trailer included (each placement leaves the
    file readable by its own format), or ``None`` for every degraded
    case: artifact missing, or — quarantined — no well-formed trailer,
    size or checksum mismatch, schema drift (an old-format artifact is
    a miss, not an error).

    This is every store's warm-hit path: one unbuffered whole-file read
    of a plain string path, no JSON, and no :class:`~pathlib.Path`
    unless the artifact goes to quarantine.
    """
    name = os.fspath(artifact)
    try:
        with open(name, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        verify(data, expected_schema)
    except IntegrityError as exc:
        quarantine.take(name, str(exc))
        return None
    quarantine.report.verified += 1
    return data
