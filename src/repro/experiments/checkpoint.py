"""Sweep checkpoint journal: incremental, resumable session results.

Long §3/§4 sweeps are exactly the multi-hour batch jobs that must
survive a SIGINT, SIGTERM, or killed host.  The journal makes every
computed job durable the moment it finishes:
:func:`~repro.experiments.parallel.run_jobs` appends one record per
computed job (cache hits are not journaled), and a resumed sweep
replays those records instead of recomputing — bit-identical to an
uninterrupted run, because a record is keyed by the job's content
address and a job fully determines its result.

Format (documented in ``docs/robustness.md``): a line-oriented JSON
file.  The first line is a header::

    {"journal": "repro-sweep", "version": 2, "schema": <SCHEMA_VERSION>}

and every subsequent line is one completed job::

    {"key": "<sha256 spec digest>", "result": "<base64 pickle>", "crc": "<crc32>"}

Appends are flushed per record, so a crash loses at most the record
being written; the header and the final state are additionally fsynced
(open and close are the two moments an OS crash could otherwise lose
acknowledged work wholesale).  The per-record CRC-32 — computed over
``key + "\\x00" + result`` — is what makes truncated-tail detection
exact: a torn line either fails to parse or fails its CRC, is counted
in :attr:`SweepJournal.skipped`, and resume skips exactly that record
rather than trusting whatever happens to parse.  Version-1 journals
(no CRC field) are still readable; their records fall back to
parse-validation.  A journal whose header names a different
:data:`~repro.experiments.parallel.SCHEMA_VERSION` is stale (results
would no longer be comparable) and is discarded wholesale.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from pathlib import Path
from typing import IO, Any, Dict, Optional, Sequence

from ..storage import fsync_handle, open_journal, record_crc
from ..video.player import SessionResult
from .parallel import SCHEMA_VERSION, SessionSpec, cache_key, default_cache_dir

JOURNAL_MAGIC = "repro-sweep"
JOURNAL_VERSION = 2

#: Header versions this reader accepts: v1 journals predate per-record
#: CRCs but their records are otherwise identical.
COMPATIBLE_JOURNAL_VERSIONS = frozenset({1, JOURNAL_VERSION})


def sweep_digest(specs: Sequence[SessionSpec]) -> str:
    """Stable identity of a sweep: hash of its sorted job digests.

    Used to derive a default journal path, so re-running the same
    command line finds its own journal and a different grid gets a
    fresh one.  Non-cacheable specs (shared-instance ABR) contribute
    nothing: they are never journaled.
    """
    keys = sorted(cache_key(spec) for spec in specs if spec.cacheable)
    blob = "\n".join([str(len(keys)), *keys])
    return hashlib.sha256(blob.encode()).hexdigest()


def default_journal_path(
    specs: Sequence[SessionSpec], root: Optional[Path] = None
) -> Path:
    """``<cache root>/journals/<sweep digest>.journal``."""
    base = root if root is not None else default_cache_dir()
    return base / "journals" / f"{sweep_digest(specs)[:16]}.journal"


class SweepJournal:
    """Append-only checkpoint store for one sweep.

    ``resume=True`` loads any compatible existing journal and appends
    to it; ``resume=False`` truncates and starts fresh.  The journal is
    left in place after a successful sweep — resuming a finished sweep
    is a cheap no-op that replays every record.
    """

    def __init__(
        self,
        path: Path | str,
        resume: bool = True,
        *,
        magic: str = JOURNAL_MAGIC,
        schema: int = SCHEMA_VERSION,
        result_type: type = SessionResult,
    ) -> None:
        self.path = Path(path)
        self.resume = resume
        #: Journal family tag, schema stamp, and the record payload
        #: type accepted on load.  Session sweeps use the defaults;
        #: other job families (e.g. fleet cohort shards) pass their own
        #: so a stale or foreign journal is discarded, not replayed.
        self.magic = magic
        self.schema = schema
        self.result_type = result_type
        #: Records written by this process (not counting loaded ones).
        self.recorded = 0
        #: Corrupt or truncated lines skipped during :meth:`begin`.
        self.skipped = 0
        self._fh: Optional[IO[str]] = None

    # ------------------------------------------------------------------
    def begin(self) -> Dict[str, Any]:
        """Open the journal and return the resumable results.

        Returns ``{}`` when starting fresh, when no journal exists yet,
        or when the existing file's header is missing, malformed, or
        from a different schema version (a stale journal must not leak
        incomparable results into a new sweep).
        """
        entries: Dict[str, Any] = {}
        header_ok = False
        if self.resume:
            entries, header_ok = self._load()
        if header_ok:
            self._fh = open_journal(self.path, fresh=False)
        else:
            self._fh = open_journal(self.path, fresh=True)
            header = {
                "journal": self.magic,
                "version": JOURNAL_VERSION,
                "schema": self.schema,
            }
            self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            # An OS crash after begin() must not be able to lose the
            # header: records appended later would then parse as a
            # headerless (= discarded) journal.
            fsync_handle(self._fh)
        return entries

    def record(self, key: str, result: Any) -> None:
        """Append one completed job (flushed immediately)."""
        if self._fh is None:
            self._fh = open_journal(self.path, fresh=False)
        blob = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        line = json.dumps(
            {"key": key, "result": blob, "crc": record_crc(f"{key}\x00{blob}")},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        self.recorded += 1

    def close(self) -> None:
        if self._fh is not None:
            # Everything acknowledged so far becomes durable before the
            # handle goes away — the journal's moment of truth.
            fsync_handle(self._fh)
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    def _load(self) -> tuple[Dict[str, Any], bool]:
        entries: Dict[str, Any] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return entries, False
        lines = text.splitlines()
        if not lines:
            return entries, False
        try:
            header = json.loads(lines[0])
        except ValueError:
            return entries, False
        if (
            not isinstance(header, dict)
            or header.get("journal") != self.magic
            or header.get("version") not in COMPATIBLE_JOURNAL_VERSIONS
            or header.get("schema") != self.schema
        ):
            return entries, False
        for line in lines[1:]:
            try:
                record = json.loads(line)
                key = record["key"]
                blob = record["result"]
                if "crc" in record and record["crc"] != record_crc(
                    f"{key}\x00{blob}"
                ):
                    # The CRC was written with the record, so a mismatch
                    # means the line was cut mid-append: skip exactly it.
                    self.skipped += 1
                    continue
                result = pickle.loads(base64.b64decode(blob))
            except Exception:
                # A kill mid-append leaves at most one truncated tail
                # line; tolerate it (counted) instead of refusing the
                # whole journal.
                self.skipped += 1
                continue
            if isinstance(key, str) and isinstance(result, self.result_type):
                entries[key] = result
            else:
                self.skipped += 1
        return entries, True
