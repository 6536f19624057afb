"""The atomic publish discipline: all-or-nothing, faults and all."""

from __future__ import annotations

import errno
import hashlib

import pytest

from repro.faults.injector import Fault, InjectedCrash, installed_plan
from repro.storage import (
    StorageReport,
    is_readonly_error,
    prune_stale_tmp,
    publish_bytes,
    publish_via,
    record_crc,
)

PAYLOAD = b"coal not diamonds" * 64


def tmp_files(root):
    return sorted(p.name for p in root.rglob("*.tmp"))


def test_publish_bytes_is_atomic_and_returns_digest(tmp_path):
    report = StorageReport()
    path = tmp_path / "store" / "artifact.bin"
    digest = publish_bytes(path, PAYLOAD, report=report)
    assert path.read_bytes() == PAYLOAD
    assert digest == hashlib.sha256(PAYLOAD).hexdigest()
    assert tmp_files(tmp_path) == []
    assert report.published == 1


def test_failed_fill_leaves_nothing_behind(tmp_path):
    path = tmp_path / "artifact.bin"

    def explode(fh):
        fh.write(b"partial")
        raise ValueError("writer died mid-payload")

    with pytest.raises(ValueError):
        publish_via(path, explode)
    assert not path.exists()
    assert tmp_files(tmp_path) == []


def test_republish_prunes_stale_tmp_of_same_artifact(tmp_path):
    path = tmp_path / "artifact.bin"
    stale = tmp_path / "artifact.binXXXX.tmp"
    stale.write_bytes(b"debris from a dead writer")
    report = StorageReport()
    publish_bytes(path, PAYLOAD, report=report)
    assert tmp_files(tmp_path) == []
    assert report.stale_tmp_pruned == 1
    # Direct call on an already-clean directory is a no-op.
    assert prune_stale_tmp(path) == 0


def test_record_crc_is_stable_and_hex(tmp_path):
    assert record_crc("abc\x00def") == record_crc("abc\x00def")
    assert record_crc("abc\x00def") != record_crc("abc\x00deg")
    assert len(record_crc("")) == 8
    int(record_crc("anything"), 16)  # parses as hex


# ----------------------------------------------------------------------
# Injected storage faults (the chaos primitives, unit-level)
# ----------------------------------------------------------------------

def plan(tmp_path, kind, point="storage:unit"):
    return installed_plan(
        [Fault(point=point, kind=kind)], tmp_path / "ledger"
    )


def test_enospc_fault_leaves_no_partial_artifact(tmp_path):
    path = tmp_path / "store" / "artifact.bin"
    with plan(tmp_path, "enospc"):
        with pytest.raises(OSError) as info:
            publish_bytes(path, PAYLOAD, surface="unit")
    assert info.value.errno == errno.ENOSPC
    assert not is_readonly_error(info.value)
    assert not path.exists()
    assert tmp_files(tmp_path / "store") == []


def test_readonly_fault_is_a_permanent_condition(tmp_path):
    path = tmp_path / "artifact.bin"
    with plan(tmp_path, "readonly"):
        with pytest.raises(PermissionError) as info:
            publish_bytes(path, PAYLOAD, surface="unit")
    assert is_readonly_error(info.value)
    assert not path.exists()


def test_crash_fault_leaves_an_orphan_tmp_but_no_artifact(tmp_path):
    path = tmp_path / "artifact.bin"
    with plan(tmp_path, "crash"):
        with pytest.raises(InjectedCrash):
            publish_bytes(path, PAYLOAD, surface="unit")
    assert not path.exists()
    assert len(tmp_files(tmp_path)) == 1  # fsck flags it as orphan-tmp


def test_torn_fault_truncates_but_digest_names_full_payload(tmp_path):
    path = tmp_path / "artifact.bin"
    with plan(tmp_path, "torn"):
        digest = publish_bytes(path, PAYLOAD, surface="unit")
    assert digest == hashlib.sha256(PAYLOAD).hexdigest()
    torn = path.read_bytes()
    assert 0 < len(torn) < len(PAYLOAD)
    assert hashlib.sha256(torn).hexdigest() != digest


def test_bitrot_fault_flips_exactly_one_byte(tmp_path):
    path = tmp_path / "artifact.bin"
    with plan(tmp_path, "bitrot"):
        digest = publish_bytes(path, PAYLOAD, surface="unit")
    rotten = path.read_bytes()
    assert len(rotten) == len(PAYLOAD)
    assert sum(a != b for a, b in zip(rotten, PAYLOAD)) == 1
    assert hashlib.sha256(rotten).hexdigest() != digest


def test_storage_fault_is_claimed_exactly_once(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    with plan(tmp_path, "enospc"):
        with pytest.raises(OSError):
            publish_bytes(a, PAYLOAD, surface="unit")
        publish_bytes(b, PAYLOAD, surface="unit")  # fault already spent
    assert b.read_bytes() == PAYLOAD


def test_surface_none_opts_out_of_fault_injection(tmp_path):
    """Sidecars (and other trusted witnesses) publish with surface=None
    and must never take a storage fault."""
    path = tmp_path / "artifact.bin"
    with plan(tmp_path, "enospc"):
        publish_bytes(path, PAYLOAD)  # no surface: fault not claimed
        with pytest.raises(OSError):
            publish_bytes(tmp_path / "other.bin", PAYLOAD, surface="unit")
    assert path.read_bytes() == PAYLOAD


def test_publish_bytes_hashes_in_memory_publish_via_reads_back(
    tmp_path, monkeypatch
):
    from repro.storage import atomic

    read_back = []
    file_sha256 = atomic._file_sha256
    monkeypatch.setattr(
        atomic, "_file_sha256", lambda p: read_back.append(p) or file_sha256(p)
    )
    expected = hashlib.sha256(PAYLOAD).hexdigest()
    assert publish_bytes(tmp_path / "bytes.bin", PAYLOAD) == expected
    assert read_back == []
    via = publish_via(tmp_path / "via.bin", lambda fh: fh.write(PAYLOAD))
    assert via == expected
    assert len(read_back) == 1
