"""Integrity scrubbing for every on-disk store (``repro fsck``).

Walks one or more store roots and classifies every file it finds:

* **enveloped artifact** (``*.pkl``, ``*.npz``) —
  checked against the trailer sealed inside it: no well-formed trailer
  is a ``bad-envelope`` finding, a size or digest mismatch a
  ``checksum-mismatch`` (the store quarantines either on next read,
  fsck just surfaces it early);
* **arena leaderboard** (``leaderboard-*.json``) — checked against the
  digest embedded in it (its bytes are its content address);
* **any other file** (a leaderboard's ``.txt``, ...) — unenveloped,
  informational;
* **orphaned ``*.tmp``** — a writer died between staging and publish;
  integrity finding, pruned by ``--repair``;
* **``*.env.json``** — an envelope sidecar of the layout before the
  envelope moved into the artifact; nothing reads or writes one any
  more, so it is an ``orphan-sidecar`` integrity finding, pruned by
  ``--repair``;
* **journal** (``*.journal``) — header parsed, every record's CRC
  checked; a torn or garbled record is an integrity finding (resume
  skips it, fsck names it);
* **quarantine contents** — any file under a ``quarantine/`` directory
  at any depth below the root, so a nested store's quarantine (the
  arena cache's ``<cache>/arena/quarantine/``, the trace store's
  ``<cache>/traces/quarantine/``) counts too; informational only:
  quarantine is exactly where corrupt artifacts are supposed to be.

``--repair`` also quarantines every artifact that fails verification.

Exit-code contract (used by CI and future service health checks):
``0`` every store clean, ``1`` integrity findings present, ``2`` usage
error (e.g. a root that is not a directory).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .atomic import TMP_SUFFIX, record_crc
from .envelope import QUARANTINE_DIR, IntegrityError, Quarantine, verify

#: 2: ``legacy`` became ``unenveloped``; sidecar findings gave way to
#: ``bad-envelope``.
FSCK_SCHEMA_VERSION = 2

#: File suffixes fsck recognises as journals (line-JSON with header).
JOURNAL_SUFFIX = ".journal"

#: Suffixes of artifacts that carry an envelope trailer.
ENVELOPED_SUFFIXES = (".pkl", ".npz")

#: Leftover files ``--repair`` deletes: (suffix, problem, detail).
ORPHANS = (
    (TMP_SUFFIX, "orphan-tmp", "staged file with no publisher"),
    (".env.json", "orphan-sidecar",
     "envelope sidecar of the old layout; the envelope is in the artifact"),
)


@dataclass
class Finding:
    """One problem (or repair) fsck observed at a specific path."""

    path: str
    problem: str
    detail: str = ""
    repaired: bool = False

    def to_payload(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "problem": self.problem,
            "detail": self.detail,
            "repaired": self.repaired,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Finding":
        return cls(
            path=str(payload["path"]),
            problem=str(payload["problem"]),
            detail=str(payload.get("detail", "")),
            repaired=bool(payload.get("repaired", False)),
        )


#: Finding problems that count as integrity findings (gate CI); the
#: rest — quarantine contents, unenveloped files — are informational.
INTEGRITY_PROBLEMS = frozenset(
    {"bad-envelope", "checksum-mismatch", "orphan-tmp", "orphan-sidecar",
     "torn-journal-record", "garbled-journal-header"}
)


@dataclass
class StoreFsck:
    """Scrub results for one store root."""

    root: str
    artifacts: int = 0
    verified: int = 0
    unenveloped: int = 0
    journals: int = 0
    journal_records: int = 0
    quarantined: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def integrity_findings(self) -> List[Finding]:
        return [
            f for f in self.findings
            if f.problem in INTEGRITY_PROBLEMS and not f.repaired
        ]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "artifacts": self.artifacts,
            "verified": self.verified,
            "unenveloped": self.unenveloped,
            "journals": self.journals,
            "journal_records": self.journal_records,
            "quarantined": self.quarantined,
            "findings": [f.to_payload() for f in self.findings],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "StoreFsck":
        return cls(
            root=str(payload["root"]),
            artifacts=int(payload["artifacts"]),
            verified=int(payload["verified"]),
            unenveloped=int(payload["unenveloped"]),
            journals=int(payload["journals"]),
            journal_records=int(payload["journal_records"]),
            quarantined=int(payload["quarantined"]),
            findings=[
                Finding.from_payload(entry) for entry in payload["findings"]
            ],
        )


@dataclass
class FsckReport:
    """The full scrub: one :class:`StoreFsck` per root."""

    stores: List[StoreFsck] = field(default_factory=list)
    repair: bool = False

    @property
    def integrity_findings(self) -> List[Finding]:
        return [f for s in self.stores for f in s.integrity_findings]

    @property
    def clean(self) -> bool:
        return not self.integrity_findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_payload(self) -> Dict[str, Any]:
        return {
            "fsck_schema": FSCK_SCHEMA_VERSION,
            "repair": self.repair,
            "clean": self.clean,
            "integrity_findings": len(self.integrity_findings),
            "stores": [s.to_payload() for s in self.stores],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FsckReport":
        if payload.get("fsck_schema") != FSCK_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fsck schema {payload.get('fsck_schema')!r}"
            )
        return cls(
            stores=[
                StoreFsck.from_payload(entry) for entry in payload["stores"]
            ],
            repair=bool(payload.get("repair", False)),
        )

    def summary(self) -> str:
        lines = []
        for store in self.stores:
            bad = len(store.integrity_findings)
            status = "clean" if not bad else f"{bad} integrity finding(s)"
            lines.append(
                f"{store.root}: {status} — {store.artifacts} artifact(s), "
                f"{store.verified} verified, {store.unenveloped} unenveloped, "
                f"{store.journals} journal(s), "
                f"{store.quarantined} quarantined"
            )
            for finding in store.findings:
                mark = "repaired" if finding.repaired else finding.problem
                detail = f" ({finding.detail})" if finding.detail else ""
                lines.append(f"  [{mark}] {finding.path}{detail}")
        total = len(self.integrity_findings)
        lines.append(
            "fsck: clean" if self.clean
            else f"fsck: {total} integrity finding(s)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The scrub itself
# ----------------------------------------------------------------------

def _scrub_journal(path: Path, store: StoreFsck) -> None:
    store.journals += 1
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        store.findings.append(
            Finding(str(path), "garbled-journal-header", str(exc))
        )
        return
    if not lines:
        return
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict) or "journal" not in header:
            raise ValueError("first line is not a journal header")
    except ValueError as exc:
        store.findings.append(
            Finding(str(path), "garbled-journal-header", str(exc))
        )
        return
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        detail = ""
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict):
                detail = "record is not a JSON object"
            elif "crc" in entry:
                payload = f"{entry.get('key', '')}\x00{entry.get('result', '')}"
                if record_crc(payload) != entry["crc"]:
                    detail = "record CRC mismatch"
        except ValueError:
            detail = "unparseable record"
        if detail:
            store.findings.append(
                Finding(str(path), "torn-journal-record",
                        f"line {lineno}: {detail}")
            )
        else:
            store.journal_records += 1


def _scrub_artifact(
    path: Path, store: StoreFsck, quarantine: Optional[Quarantine]
) -> None:
    store.artifacts += 1
    name = path.name
    leaderboard = name.startswith("leaderboard-") and name.endswith(".json")
    if not leaderboard and not name.endswith(ENVELOPED_SUFFIXES):
        store.unenveloped += 1
        return
    try:
        data = path.read_bytes()
        if leaderboard:
            # Imported lazily, as default_roots imports the stores.
            from ..arena.leaderboard import verify_artifact

            verify_artifact(data, name)
        else:
            verify(data)
    except (OSError, ValueError, IntegrityError) as exc:
        repaired = False
        if quarantine is not None:
            quarantine.take(path, str(exc))
            repaired = not path.exists()
        # A leaderboard's ValueError is a mismatch with its own digest.
        problem = getattr(exc, "problem", "checksum-mismatch")
        store.findings.append(
            Finding(str(path), problem, str(exc), repaired=repaired)
        )
        return
    store.verified += 1


def scrub_root(
    root: Union[str, Path], *, repair: bool = False
) -> StoreFsck:
    """Scrub one store root (recursively); see module docstring."""
    root = Path(root)
    store = StoreFsck(root=str(root))
    mover = Quarantine(root, label=f"fsck of {root}") if repair else None
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if QUARANTINE_DIR in path.relative_to(root).parts[:-1]:
            store.quarantined += 1
            continue
        name = path.name
        orphan = next(
            (entry for entry in ORPHANS if name.endswith(entry[0])), None
        )
        if orphan is not None:
            repaired = False
            if repair:
                try:
                    path.unlink()
                    repaired = True
                except OSError:
                    repaired = False
            store.findings.append(
                Finding(str(path), orphan[1], orphan[2], repaired=repaired)
            )
            continue
        if name.endswith(JOURNAL_SUFFIX):
            _scrub_journal(path, store)
            continue
        _scrub_artifact(path, store, mover)
    return store


def scrub(
    roots: Iterable[Union[str, Path]], *, repair: bool = False
) -> FsckReport:
    """Scrub every root that exists; missing roots are skipped silently
    (an empty cache is a healthy cache)."""
    report = FsckReport(repair=repair)
    for root in roots:
        root = Path(root)
        if not root.exists():
            continue
        report.stores.append(scrub_root(root, repair=repair))
    return report


def default_roots() -> List[Path]:
    """The stores a bare ``repro fsck`` scrubs: result cache + traces.

    The trace store is its own root only when it lies outside the cache
    root; the default ``<cache>/traces`` is already under the cache
    root's walk, and a second root would scrub every trace twice.
    Imported lazily so the storage package itself stays importable
    without the experiment stack.
    """
    from ..experiments.parallel import default_cache_dir
    from ..trace.store import default_trace_dir

    cache_root = default_cache_dir()
    trace_root = default_trace_dir()
    if trace_root.resolve().is_relative_to(cache_root.resolve()):
        return [cache_root]
    return [cache_root, trace_root]
