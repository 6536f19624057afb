"""Checksummed artifact envelopes and graceful-degradation reads.

An **envelope** is a tiny JSON sidecar published next to an artifact
(``<artifact>.env.json``) recording what the artifact claimed to be at
publish time::

    {"envelope": 1, "kind": "result-cache", "schema": "v2/ab12...",
     "sha256": "<hex digest of the artifact bytes>", "bytes": 1234}

The sidecar is itself published atomically *after* the artifact, so the
possible on-disk states after any crash are: neither file, artifact
without sidecar (indistinguishable from a legacy pre-envelope artifact),
or both — never a sidecar describing bytes that are not there.

:func:`verified_read` is the read half of the discipline: hash the
artifact, compare against the sidecar, and on any mismatch hand the
artifact to a :class:`Quarantine` — moved, never deleted, one warning
per store, counted — and report a miss so the caller recomputes.  A
checksum or schema problem is **never** raised to the caller; the only
exceptions out of this module are programming errors.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .atomic import StorageReport, publish_bytes, sha256_hex

#: Version of the sidecar format itself (not of the artifact's schema).
ENVELOPE_VERSION = 1

#: Suffix appended to the artifact path to name its sidecar.
SIDECAR_SUFFIX = ".env.json"

#: Directory name (under a store root) where corrupt artifacts go.
QUARANTINE_DIR = "quarantine"


class IntegrityError(RuntimeError):
    """An artifact's bytes do not match its envelope.

    Internal to the storage layer: surfaces catch it (or use
    :func:`verified_read`, which converts it into quarantine + miss);
    it must never escape to simulation code.
    """


def sidecar_path(artifact: Union[str, Path]) -> Path:
    return Path(os.fspath(artifact) + SIDECAR_SUFFIX)


#: Sidecar fields after ``envelope`` and the one type each must have.
_FIELD_TYPES = (("kind", str), ("schema", str), ("sha256", str), ("bytes", int))


@dataclass(frozen=True)
class Envelope:
    """The parsed contents of one artifact sidecar."""

    kind: str
    schema: str
    sha256: str
    size: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "envelope": ENVELOPE_VERSION,
            "kind": self.kind,
            "schema": self.schema,
            "sha256": self.sha256,
            "bytes": self.size,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Envelope":
        """Parse a sidecar payload; every field must have exactly the
        type :func:`write_sidecar` writes (``True`` is not ``1`` and
        ``12.9`` is not a size), or the envelope is malformed."""
        version = payload.get("envelope")
        if type(version) is not int or version != ENVELOPE_VERSION:
            raise IntegrityError(f"unsupported envelope version {version!r}")
        for field, expected in _FIELD_TYPES:
            value = payload.get(field)
            if type(value) is not expected:
                raise IntegrityError(
                    f"malformed envelope: {field!r} is {value!r}, "
                    f"not {expected.__name__}"
                )
        return cls(
            kind=payload["kind"],
            schema=payload["schema"],
            sha256=payload["sha256"],
            size=payload["bytes"],
        )


def write_sidecar(
    artifact: Union[str, Path],
    *,
    kind: str,
    schema: str,
    digest: str,
    size: int,
) -> Path:
    """Publish the envelope sidecar for an already-published artifact.

    Sidecars never take storage faults themselves (``surface=None``):
    the chaos scenarios corrupt artifacts and rely on the sidecar to
    catch it, so the sidecar is the trusted witness.
    """
    path = sidecar_path(artifact)
    envelope = Envelope(kind=kind, schema=schema, sha256=digest, size=size)
    publish_bytes(
        path,
        json.dumps(envelope.to_payload(), sort_keys=True).encode("utf-8"),
    )
    return path


def read_sidecar(artifact: Union[str, Path]) -> Optional[Envelope]:
    """Parse an artifact's sidecar; ``None`` when absent (legacy file).

    A sidecar that exists but cannot be parsed raises
    :class:`IntegrityError` — a present-but-garbled envelope is itself
    corruption, and the pair gets quarantined together.
    """
    name = os.fspath(artifact) + SIDECAR_SUFFIX
    try:
        with open(name, "rb", buffering=0) as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise IntegrityError(f"unreadable sidecar {name}: {exc}") from exc
    try:
        # Decode first: json.loads(bytes) would also accept UTF-16/32.
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"garbled sidecar {name}: {exc}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError(f"sidecar {name} is not a JSON object")
    return Envelope.from_payload(payload)


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
        """Move ``artifact`` (and its sidecar, if any) into quarantine."""
        artifact = Path(artifact)
        self.directory.mkdir(parents=True, exist_ok=True)
        moved = False
        for victim in (artifact, sidecar_path(artifact)):
            if not victim.exists():
                continue
            dest = self.directory / victim.name
            with suppress(OSError):
                os.replace(victim, dest)
                moved = True
        if not moved:
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

    Returns the verified payload, or ``None`` for every degraded case:
    artifact missing, checksum mismatch (quarantined), garbled sidecar
    (quarantined), schema drift (quarantined — an old-format artifact
    is a miss, not an error).  An artifact with **no** sidecar is
    returned as-is with ``legacy_reads`` incremented; the caller's own
    parse-validation is the only line of defence for those, exactly as
    before this layer existed.

    This is every store's warm-hit path, so it runs on the plain string
    path: no :class:`~pathlib.Path` is built unless the artifact goes
    to quarantine.  Both files are read unbuffered (one whole-file read
    each; a buffer in front of it would only add a copy).
    """
    name = os.fspath(artifact)
    report = quarantine.report
    try:
        with open(name, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        envelope = read_sidecar(name)
    except IntegrityError as exc:
        quarantine.take(name, str(exc))
        return None
    if envelope is None:
        report.legacy_reads += 1
        return data
    if envelope.size != len(data) or envelope.sha256 != sha256_hex(data):
        quarantine.take(
            name,
            f"checksum mismatch (have {len(data)} bytes, "
            f"envelope says {envelope.size})",
        )
        return None
    if expected_schema is not None and envelope.schema != expected_schema:
        quarantine.take(
            name,
            f"schema drift ({envelope.schema!r} != {expected_schema!r})",
        )
        return None
    report.verified += 1
    return data
