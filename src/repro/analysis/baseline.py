"""Baseline file handling: grandfathered findings.

``lint-baseline.json`` mirrors the ``--update-golden`` idiom from the
validation subsystem: the file records the findings that existed when a
rule was introduced, ``repro lint`` fails only on findings *not* in it,
and ``repro lint --update-baseline`` refreshes it deliberately (the
diff then shows exactly which debts were added or paid down).

Entries are keyed by finding fingerprint (rule + path + message — line
numbers excluded so edits elsewhere in a file do not un-baseline a
finding) with a count, so two identical findings in one file need two
baseline slots: fixing one of them keeps the run green, adding a third
fails it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..storage import publish_bytes
from .engine import Finding

BASELINE_VERSION = 1
#: Default baseline location, relative to the working directory.
DEFAULT_BASELINE = Path("lint-baseline.json")


def load_baseline_entries(path: Path) -> List[Dict[str, Any]]:
    """The raw entry list, with per-entry rule/path/message metadata.

    A missing file is an empty baseline; an unsupported version raises
    (silently ignoring it would un-grandfather everything at once).
    """
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    payload = json.loads(text)
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {payload.get('version')!r} "
            f"in {path} (expected {BASELINE_VERSION})"
        )
    return list(payload.get("findings", []))


def load_baseline(path: Path) -> Dict[str, int]:
    """Fingerprint -> allowed count.  A missing file is an empty baseline."""
    allowed: Dict[str, int] = {}
    for entry in load_baseline_entries(path):
        allowed[entry["fingerprint"]] = (
            allowed.get(entry["fingerprint"], 0) + int(entry.get("count", 1))
        )
    return allowed


def _entries_from_findings(
    findings: Sequence[Finding],
) -> List[Dict[str, Any]]:
    grouped: Dict[str, Tuple[Finding, int]] = {}
    for finding in findings:
        fingerprint = finding.fingerprint
        if fingerprint in grouped:
            first, count = grouped[fingerprint]
            grouped[fingerprint] = (first, count + 1)
        else:
            grouped[fingerprint] = (finding, 1)
    return [
        {
            "fingerprint": fingerprint,
            "rule": finding.rule,
            "path": finding.path,
            "message": finding.message,
            "count": count,
        }
        for fingerprint, (finding, count) in sorted(grouped.items())
    ]


def _write_entries(entries: List[Dict[str, Any]], path: Path) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Grandfathered `repro lint` findings. Refresh deliberately "
            "with `repro lint --update-baseline` and justify additions "
            "in the same commit (see docs/static-analysis.md)."
        ),
        "findings": sorted(entries, key=lambda e: str(e["fingerprint"])),
    }
    # Atomic publish, no envelope: the baseline is a committed repo file
    # whose integrity is git's job; atomicity just keeps a Ctrl-C during
    # --update-baseline from leaving a half-written file.
    publish_bytes(
        path,
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )


def write_baseline(findings: Sequence[Finding], path: Path) -> None:
    """Record ``findings`` as the new grandfathered set (full rewrite)."""
    _write_entries(_entries_from_findings(findings), path)


@dataclass
class BaselineUpdate:
    """What ``--update-baseline`` did, for reporting."""

    old_total: int = 0               #: fingerprint slots before
    new_total: int = 0               #: fingerprint slots after
    pruned: List[str] = field(default_factory=list)  #: dead-file paths dropped
    kept_outside: int = 0            #: entries preserved outside lint scope

    @property
    def shrank(self) -> bool:
        return self.new_total < self.old_total


def update_baseline(
    findings: Sequence[Finding],
    path: Path,
    linted_rels: Set[str],
    root: Optional[Path] = None,
) -> BaselineUpdate:
    """Merge ``findings`` into the baseline instead of rewriting it.

    The old behaviour — rewrite from the current findings — silently
    dropped every grandfathered entry outside the linted paths, so
    ``repro lint src/repro/sim --update-baseline`` would nuke the debts
    of every other package.  The merge keeps entries for files outside
    ``linted_rels`` untouched, *except* entries whose source file no
    longer exists on disk: those are stale debt for deleted code and
    are pruned (and reported, so a shrinking baseline is always
    explained).
    """
    resolved_root = root if root is not None else Path.cwd()
    old_entries = load_baseline_entries(path)
    kept: List[Dict[str, Any]] = []
    update = BaselineUpdate()
    pruned_paths: Set[str] = set()
    for entry in old_entries:
        update.old_total += int(entry.get("count", 1))
        entry_path = str(entry.get("path", ""))
        if entry_path in linted_rels:
            continue  # superseded by this run's findings for that file
        if not (resolved_root / entry_path).exists():
            pruned_paths.add(entry_path)
            continue
        kept.append(entry)
        update.kept_outside += int(entry.get("count", 1))
    new_entries = _entries_from_findings(findings) + kept
    update.pruned = sorted(pruned_paths)
    update.new_total = sum(int(e.get("count", 1)) for e in new_entries)
    _write_entries(new_entries, path)
    return update


def split_baselined(
    findings: Sequence[Finding], allowed: Dict[str, int]
) -> Tuple[List[Finding], List[Finding]]:
    """Partition findings into (new, baselined), consuming counts."""
    budget = Counter(allowed)
    new: List[Finding] = []
    baselined: List[Finding] = []
    for finding in findings:
        fingerprint = finding.fingerprint
        if budget[fingerprint] > 0:
            budget[fingerprint] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    return new, baselined
