"""Degraded filesystems: read-only cache dirs and full disks.

The acceptance property (ISSUE/docs/robustness.md): a read-only
``REPRO_CACHE_DIR`` degrades to uncached operation with a single
warning, and ENOSPC mid-publish leaves no partial artifact behind.
Both conditions are injected deterministically through the storage
fault plan (``chmod`` is useless under root, and real full disks do
not fit in CI).
"""

from __future__ import annotations

import warnings

import pytest

from repro.experiments.parallel import ResultCache
from repro.faults.injector import Fault, installed_plan
from repro.storage import scrub, verify


def readonly_plan(tmp_path, count=1):
    faults = [
        Fault(point="storage:result-cache", kind="readonly")
        for _ in range(count)
    ]
    return installed_plan(faults, tmp_path / "ledger")


def test_readonly_cache_degrades_to_uncached_with_one_warning(tmp_path):
    store = ResultCache(tmp_path / "cache", result_type=dict)
    with readonly_plan(tmp_path, count=3):
        with pytest.warns(RuntimeWarning, match="falling back to uncached"):
            store.put("a" * 40, {"seed": 1})
        assert store.report.readonly_fallbacks == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            store.put("b" * 40, {"seed": 2})  # disabled: silently skipped
    # Nothing was cached; reads are plain misses, never errors.
    assert store.get("a" * 40) is None
    assert store.misses == 1
    # Only the (harmless) fan-out directory was created, no files.
    assert [p for p in (tmp_path / "cache").rglob("*") if p.is_file()] == []


def test_readonly_store_recovers_on_a_writable_rerun(tmp_path):
    root = tmp_path / "cache"
    crippled = ResultCache(root, result_type=dict)
    with readonly_plan(tmp_path):
        with pytest.warns(RuntimeWarning):
            crippled.put("c" * 40, {"seed": 3})
    # A fresh store over the same directory (next run) caches normally.
    healthy = ResultCache(root, result_type=dict)
    healthy.put("c" * 40, {"seed": 3})
    assert healthy.get("c" * 40) == {"seed": 3}
    assert scrub([root]).clean


def test_enospc_leaves_no_partial_artifact_and_no_orphans(tmp_path):
    root = tmp_path / "cache"
    store = ResultCache(root, result_type=dict)
    with installed_plan(
        [Fault(point="storage:result-cache", kind="enospc")],
        tmp_path / "ledger",
    ):
        store.put("d" * 40, {"seed": 4})  # swallowed: caching is optional
    assert store.report.publish_errors == 1
    assert store.report.readonly_fallbacks == 0  # transient, not disabling
    assert store.get("d" * 40) is None
    files = [p for p in root.rglob("*") if p.is_file()]
    assert files == []
    assert scrub([root]).clean

    # The disk "drained"; the same store publishes fine afterwards.
    store.put("d" * 40, {"seed": 4})
    assert store.get("d" * 40) == {"seed": 4}


def test_cache_entry_and_its_envelope_are_one_publish(tmp_path):
    # No second publish can fail after the first: the entry is sealed.
    store = ResultCache(tmp_path / "cache", result_type=dict)
    store.put("e" * 40, {"seed": 5})
    [entry] = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
    assert entry == store.path_for("e" * 40)
    assert verify(entry.read_bytes(), store.schema).kind == "result-cache"
    assert store.report.published == 1
