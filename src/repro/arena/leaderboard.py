"""The leaderboard artifact: schema-versioned, content-addressed,
byte-reproducible.

The artifact is a single JSON document built from the run's records in
canonical enumeration order, serialized canonically (sorted keys, no
whitespace), and stamped with the SHA-256 of its own payload — so two
runs of the same configuration produce byte-identical files regardless
of worker count, cache state, or interrupt/resume history, and any
mutation of a published leaderboard is detectable from the digest
alone.  ``repro arena`` writes the JSON next to a rendered fixed-width
table for humans.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..storage import StorageReport, publish_bytes
from .driver import ARENA_SCHEMA_VERSION, ArenaConfig, ArenaRecord
from .policies import get_policy
from .scoring import OBJECTIVES

#: Ranking objective: standings order by this scorer's mean, then the
#: others in OBJECTIVES order as tie-breakers, then the policy name.
PRIMARY_OBJECTIVE = "additive"


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def build_leaderboard(
    config: ArenaConfig, records: Sequence[ArenaRecord]
) -> Dict[str, object]:
    """Aggregate records into the leaderboard document.

    Records must be the complete grid in canonical enumeration order
    (``arena_jobs`` order); every aggregate below is computed from them
    with order-independent arithmetic, so the document depends only on
    the record *set*.
    """
    objectives = list(OBJECTIVES)
    by_policy: Dict[str, List[ArenaRecord]] = {}
    by_cell: Dict[Tuple[str, str, str], List[ArenaRecord]] = {}
    for record in records:
        by_policy.setdefault(record.policy, []).append(record)
        cell = (record.policy, record.device, record.pressure)
        by_cell.setdefault(cell, []).append(record)

    def aggregate(group: Sequence[ArenaRecord]) -> Dict[str, object]:
        out: Dict[str, object] = {
            "sessions": len(group),
            "crash_rate": _mean([1.0 if r.crashed else 0.0 for r in group]),
            "mean_drop_rate": _mean([r.drop_rate for r in group]),
            "mean_rendered_fps": _mean(
                [r.mean_rendered_fps for r in group]
            ),
            "mean_rebuffer_s": _mean(
                [r.metrics.rebuffer_s for r in group]
            ),
        }
        for name in objectives:
            out[name] = _mean([r.score(name) for r in group])
        return out

    standings = []
    for policy, group in by_policy.items():
        row = {"policy": policy, "family": get_policy(policy).family}
        row.update(aggregate(group))
        standings.append(row)
    standings.sort(key=lambda row: (
        *[-float(row[name]) for name in
          [PRIMARY_OBJECTIVE] + [n for n in objectives
                                 if n != PRIMARY_OBJECTIVE]],
        row["policy"],
    ))
    for rank, row in enumerate(standings, start=1):
        row["rank"] = rank

    cells = []
    for (policy, device, pressure), group in by_cell.items():
        row = {"policy": policy, "device": device, "pressure": pressure}
        row.update(aggregate(group))
        cells.append(row)

    rows = [
        {
            "policy": r.policy,
            "device": r.device,
            "pressure": r.pressure,
            "rep": r.rep,
            "seed": r.seed,
            "key": r.key,
            "drop_rate": r.drop_rate,
            "mean_rendered_fps": r.mean_rendered_fps,
            "crashed": r.crashed,
            "startup_s": r.metrics.startup_s,
            "rebuffer_s": r.metrics.rebuffer_s,
            "freeze_s": r.metrics.freeze_s,
            "switch_count": r.metrics.switch_count,
            "scores": {s.objective: s.value for s in r.scores},
        }
        for r in records
    ]

    payload: Dict[str, object] = {
        "kind": "arena-leaderboard",
        "schema": ARENA_SCHEMA_VERSION,
        "objectives": objectives,
        "config": config.as_dict(),
        "standings": standings,
        "cells": cells,
        "records": rows,
    }
    payload["digest"] = _payload_digest(payload)
    return payload


def _payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical payload, ``digest`` field excluded."""
    material = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def artifact_bytes(leaderboard: Dict[str, object]) -> bytes:
    """The artifact's canonical on-disk bytes (digest verified)."""
    digest = leaderboard.get("digest")
    if digest != _payload_digest(leaderboard):
        raise ValueError("leaderboard digest does not match its payload")
    canonical = json.dumps(
        leaderboard, sort_keys=True, separators=(",", ":")
    )
    return canonical.encode() + b"\n"


def verify_artifact(data: bytes, name: str) -> None:
    """Raise :class:`ValueError` unless ``data`` is exactly the
    published leaderboard file ``name`` (``repro fsck``'s check): its
    canonical bytes, with a digest matching payload and file name."""
    leaderboard = json.loads(data)
    if not isinstance(leaderboard, dict):
        raise ValueError("leaderboard is not a JSON object")
    if artifact_bytes(leaderboard) != data:
        raise ValueError("leaderboard bytes are not its canonical form")
    if name != f"leaderboard-{str(leaderboard['digest'])[:16]}.json":
        raise ValueError("file name does not match the leaderboard digest")


def render_table(leaderboard: Dict[str, object]) -> str:
    """The human-facing standings table (stable, fixed-width)."""
    config = leaderboard["config"]
    objectives = leaderboard["objectives"]
    lines = [
        "arena: {} policies x {} devices x {} pressures x {} rep(s), "
        "{}@{}fps, {:g}s".format(
            len(config["policies"]), len(config["devices"]),
            len(config["pressures"]), config["reps"],
            config["resolution"], config["fps"], config["duration_s"],
        ),
    ]
    header = (
        f"{'rank':>4}  {'policy':<10} {'family':<16}"
        + "".join(f" {name:>14}" for name in objectives)
        + f" {'crash%':>7} {'drop%':>7} {'fps':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in leaderboard["standings"]:
        lines.append(
            f"{row['rank']:>4}  {row['policy']:<10} {row['family']:<16}"
            + "".join(f" {row[name]:>14.3f}" for name in objectives)
            + f" {100 * row['crash_rate']:>7.1f}"
            + f" {100 * row['mean_drop_rate']:>7.1f}"
            + f" {row['mean_rendered_fps']:>6.1f}"
        )
    lines.append(f"digest: {leaderboard['digest']}")
    return "\n".join(lines) + "\n"


def write_artifact(
    leaderboard: Dict[str, object],
    out_dir: Path | str,
    *,
    report: Optional[StorageReport] = None,
) -> Tuple[Path, Path]:
    """Write ``leaderboard-<digest16>.json`` and its rendered ``.txt``
    into ``out_dir``; returns the two paths.  Content-addressed names
    mean re-running the same configuration overwrites the same files
    with the same bytes, and different configurations never collide.

    Both files go through the atomic publish discipline: a crash
    mid-write can no longer leave a half-written artifact whose
    filename claims a digest it doesn't hash to.  The JSON keeps its
    exact canonical bytes (no envelope): ``repro fsck`` verifies it
    against its embedded self-digest (:func:`verify_artifact`).
    """
    out = Path(out_dir)
    stem = f"leaderboard-{str(leaderboard['digest'])[:16]}"
    json_path = out / f"{stem}.json"
    txt_path = out / f"{stem}.txt"
    publish_bytes(
        json_path, artifact_bytes(leaderboard), surface="leaderboard",
        report=report,
    )
    publish_bytes(
        txt_path,
        render_table(leaderboard).encode("utf-8"),
        surface="leaderboard",
        report=report,
    )
    return json_path, txt_path
