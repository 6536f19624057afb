"""Checksum envelopes: verified reads, graceful degradation, quarantine."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.storage import (
    Envelope,
    IntegrityError,
    Quarantine,
    StorageReport,
    publish_bytes,
    read_sidecar,
    scrub,
    sidecar_path,
    verified_read,
    write_sidecar,
)

PAYLOAD = b"eight hundred frames of 240p video"


def make_store(tmp_path, name="entry.bin", schema="v1/test"):
    """Publish one enveloped artifact and return (path, quarantine)."""
    root = tmp_path / "store"
    path = root / name
    digest = publish_bytes(path, PAYLOAD)
    write_sidecar(
        path, kind="test", schema=schema, digest=digest, size=len(PAYLOAD)
    )
    report = StorageReport()
    return path, Quarantine(root, label="test store", report=report)


def test_verified_read_roundtrip(tmp_path):
    path, quarantine = make_store(tmp_path)
    data = verified_read(path, quarantine=quarantine, expected_schema="v1/test")
    assert data == PAYLOAD
    assert quarantine.report.verified == 1
    assert quarantine.count == 0


def test_sidecar_payload_roundtrip(tmp_path):
    path, _ = make_store(tmp_path)
    envelope = read_sidecar(path)
    assert envelope is not None
    assert envelope == Envelope.from_payload(envelope.to_payload())
    assert envelope.size == len(PAYLOAD)


def test_missing_artifact_is_a_plain_miss(tmp_path):
    _, quarantine = make_store(tmp_path)
    assert verified_read(
        tmp_path / "store" / "absent.bin", quarantine=quarantine
    ) is None
    assert quarantine.count == 0


def test_artifact_without_sidecar_is_a_legacy_read(tmp_path):
    path, quarantine = make_store(tmp_path)
    sidecar_path(path).unlink()
    data = verified_read(path, quarantine=quarantine)
    assert data == PAYLOAD
    assert quarantine.report.legacy_reads == 1
    assert quarantine.count == 0


def test_corrupt_artifact_is_quarantined_not_raised(tmp_path):
    path, quarantine = make_store(tmp_path)
    path.write_bytes(PAYLOAD[: len(PAYLOAD) // 2])
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert verified_read(path, quarantine=quarantine) is None
    assert quarantine.count == 1
    # Moved — artifact and sidecar both — never deleted.
    assert not path.exists() and not sidecar_path(path).exists()
    names = {p.name for p in quarantine.directory.iterdir()}
    assert names == {path.name, sidecar_path(path).name}


def test_quarantine_warns_once_per_store(tmp_path):
    first, quarantine = make_store(tmp_path, name="a.bin")
    second = tmp_path / "store" / "b.bin"
    digest = publish_bytes(second, PAYLOAD)
    write_sidecar(
        second, kind="test", schema="v1/test", digest=digest,
        size=len(PAYLOAD),
    )
    first.write_bytes(b"x")
    second.write_bytes(b"y")
    with pytest.warns(RuntimeWarning):
        verified_read(first, quarantine=quarantine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        verified_read(second, quarantine=quarantine)
    assert quarantine.count == 2


def test_schema_drift_is_quarantined_as_a_miss(tmp_path):
    path, quarantine = make_store(tmp_path, schema="v1/old")
    with pytest.warns(RuntimeWarning, match="schema drift"):
        assert verified_read(
            path, quarantine=quarantine, expected_schema="v2/new"
        ) is None
    assert quarantine.count == 1


def test_garbled_sidecar_quarantines_the_pair(tmp_path):
    path, quarantine = make_store(tmp_path)
    sidecar_path(path).write_text("{not json")
    with pytest.warns(RuntimeWarning):
        assert verified_read(path, quarantine=quarantine) is None
    assert quarantine.count == 1
    assert not path.exists()


def test_unsupported_envelope_version_is_integrity_error(tmp_path):
    path, _ = make_store(tmp_path)
    payload = json.loads(sidecar_path(path).read_text())
    payload["envelope"] = 99
    sidecar_path(path).write_text(json.dumps(payload))
    with pytest.raises(IntegrityError, match="unsupported envelope"):
        read_sidecar(path)


# ----------------------------------------------------------------------
# The decisions every verified read keeps, whatever its path type
# ----------------------------------------------------------------------

def rewrite_sidecar(path, **changes):
    """Rewrite ``path``'s sidecar with fields replaced (``None`` drops)."""
    payload = json.loads(sidecar_path(path).read_text())
    for field, value in changes.items():
        if value is None:
            del payload[field]
        else:
            payload[field] = value
    sidecar_path(path).write_text(json.dumps(payload))


def assert_pair_quarantined(path, quarantine):
    assert quarantine.count == 1
    assert not path.exists() and not sidecar_path(path).exists()
    names = {p.name for p in quarantine.directory.iterdir()}
    assert names == {path.name, sidecar_path(path).name}


def test_same_length_corruption_is_caught_by_the_digest(tmp_path):
    path, quarantine = make_store(tmp_path)
    flipped = bytearray(PAYLOAD)
    flipped[len(flipped) // 2] ^= 0xFF
    path.write_bytes(bytes(flipped))
    assert read_sidecar(path).size == len(flipped)  # the size check passes
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_pair_quarantined(path, quarantine)
    assert quarantine.report.verified == 0


@pytest.mark.parametrize("text", ["[1, 2]", '"envelope"', "7", "null"])
def test_sidecar_that_is_not_a_json_object_quarantines_the_pair(
    tmp_path, text
):
    path, quarantine = make_store(tmp_path)
    sidecar_path(path).write_text(text)
    with pytest.raises(IntegrityError, match="not a JSON object"):
        read_sidecar(path)
    with pytest.warns(RuntimeWarning, match="not a JSON object"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_pair_quarantined(path, quarantine)


@pytest.mark.parametrize("field", ["kind", "schema", "sha256", "bytes"])
def test_envelope_missing_a_field_quarantines_the_pair(tmp_path, field):
    path, quarantine = make_store(tmp_path)
    rewrite_sidecar(path, **{field: None})
    with pytest.raises(IntegrityError, match="malformed envelope"):
        read_sidecar(path)
    with pytest.warns(RuntimeWarning, match="malformed envelope"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_pair_quarantined(path, quarantine)


def test_directory_in_place_of_the_sidecar_quarantines_the_pair(tmp_path):
    path, quarantine = make_store(tmp_path)
    sidecar_path(path).unlink()
    sidecar_path(path).mkdir()
    with pytest.raises(IntegrityError, match="unreadable sidecar"):
        read_sidecar(path)
    with pytest.warns(RuntimeWarning, match="unreadable sidecar"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_pair_quarantined(path, quarantine)
    assert quarantine.report.legacy_reads == 0


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "latin-1"])
def test_sidecar_that_is_not_utf8_quarantines_the_pair(tmp_path, encoding):
    # UTF-16/32 copies of a valid sidecar: json.loads on the raw bytes
    # would detect the encoding and accept them, so decoding as UTF-8
    # first is what refuses them.
    path, quarantine = make_store(tmp_path)
    text = sidecar_path(path).read_text()
    if encoding == "latin-1":
        text = text.replace('"test"', '"tést"')
    sidecar_path(path).write_bytes(text.encode(encoding))
    with pytest.raises(IntegrityError, match="garbled sidecar"):
        read_sidecar(path)
    with pytest.warns(RuntimeWarning, match="garbled sidecar"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_pair_quarantined(path, quarantine)


def _corrupt(path):
    path.write_bytes(b"x" + PAYLOAD[1:])


def _drop_sidecar(path):
    sidecar_path(path).unlink()


def _garble_sidecar(path):
    sidecar_path(path).write_text("{not json")


def _remove_artifact(path):
    path.unlink()


@pytest.mark.parametrize(
    "damage, schema",
    [
        (None, "v1/test"),
        (None, "v2/other"),
        (_corrupt, None),
        (_drop_sidecar, None),
        (_garble_sidecar, None),
        (_remove_artifact, None),
    ],
    ids=["verified", "schema-drift", "corrupt", "legacy", "garbled", "missing"],
)
def test_str_and_path_artifacts_read_identically(tmp_path, damage, schema):
    outcomes = []
    for as_type in (str, Path):
        path, quarantine = make_store(tmp_path / as_type.__name__)
        if damage is not None:
            damage(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            data = verified_read(
                as_type(path), quarantine=quarantine, expected_schema=schema
            )
        left = sorted(p.name for p in path.parent.iterdir() if p.is_file())
        outcomes.append((data, quarantine.report, left))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Strict envelope fields
# ----------------------------------------------------------------------

# Each of these passed the old parse except the string version: True
# == 1, int() truncated a float size (so 12.9 verified a 12-byte
# artifact) and str() turned any value into a kind, schema or digest.
BAD_FIELDS = [
    {"envelope": True},
    {"envelope": 1.0},
    {"envelope": "1"},
    {"bytes": len(PAYLOAD) + 0.9},
    {"bytes": float(len(PAYLOAD))},
    {"bytes": True},
    {"bytes": str(len(PAYLOAD))},
    {"sha256": 12345},
    {"sha256": ["not", "a", "digest"]},
    {"kind": 3},
    {"schema": 1},
]


@pytest.mark.parametrize("changes", BAD_FIELDS, ids=repr)
def test_envelope_field_of_the_wrong_type_is_malformed(tmp_path, changes):
    path, quarantine = make_store(tmp_path)
    rewrite_sidecar(path, **changes)
    with pytest.raises(IntegrityError):
        read_sidecar(path)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_pair_quarantined(path, quarantine)
    assert quarantine.report.verified == 0


@pytest.mark.parametrize("changes", BAD_FIELDS, ids=repr)
def test_fsck_reports_a_wrongly_typed_envelope_as_garbled(tmp_path, changes):
    path, _ = make_store(tmp_path)
    rewrite_sidecar(path, **changes)
    [store] = scrub([tmp_path / "store"]).stores
    assert [f.problem for f in store.findings] == ["garbled-sidecar"]
    assert store.verified == 0

