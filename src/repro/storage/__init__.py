"""Durable storage fabric: the one way artifacts reach and leave disk.

Every persistence surface in the repo routes through this package:

==================  ==========================================  ==================
surface             module                                      fault point
==================  ==========================================  ==================
result cache        :mod:`repro.experiments.parallel`           ``storage:result-cache``
sweep journals      :mod:`repro.experiments.checkpoint`         (append-only: CRC-checked)
trace store         :mod:`repro.trace.store`                    ``storage:trace-store``
cohort exports      :mod:`repro.study.export`                   ``storage:study-export``
arena leaderboard   :mod:`repro.arena.leaderboard`              ``storage:leaderboard``
==================  ==========================================  ==================

:mod:`repro.storage.atomic` is the publish discipline (tmp + fsync +
``os.replace`` + directory fsync), :mod:`repro.storage.envelope` the
checksum envelopes sealed inside each artifact and the
quarantine-on-mismatch reads, and
:mod:`repro.storage.fsck` the scrubber behind ``repro fsck``.  The
package is stdlib-only: the lint toolchain imports it on a bare
checkout, and numpy-handling surfaces pass writer callables into
:func:`publish_via` instead of this layer importing numpy.

See the "Durable storage" section of ``docs/robustness.md``.
"""

from .atomic import (
    READONLY_ERRNOS,
    TMP_SUFFIX,
    StorageReport,
    fsync_dir,
    fsync_handle,
    is_readonly_error,
    open_journal,
    prune_stale_tmp,
    publish_bytes,
    publish_via,
    record_crc,
)
from .envelope import (
    ENVELOPE_VERSION,
    QUARANTINE_DIR,
    ZIP_COMMENT,
    Envelope,
    IntegrityError,
    Quarantine,
    Seal,
    sha256_hex,
    verified_read,
    verify,
)
from .fsck import FsckReport, StoreFsck, default_roots, scrub, scrub_root

__all__ = [
    "ENVELOPE_VERSION",
    "QUARANTINE_DIR",
    "READONLY_ERRNOS",
    "TMP_SUFFIX",
    "ZIP_COMMENT",
    "Envelope",
    "FsckReport",
    "IntegrityError",
    "Quarantine",
    "Seal",
    "StorageReport",
    "StoreFsck",
    "default_roots",
    "fsync_dir",
    "fsync_handle",
    "is_readonly_error",
    "open_journal",
    "prune_stale_tmp",
    "publish_bytes",
    "publish_via",
    "record_crc",
    "scrub",
    "scrub_root",
    "sha256_hex",
    "verified_read",
    "verify",
]
