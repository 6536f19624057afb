"""Checksum envelopes: sealed trailers, verified reads, quarantine."""

from __future__ import annotations

import io
import json
import struct
import tempfile
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    ENVELOPE_VERSION,
    ZIP_COMMENT,
    IntegrityError,
    Quarantine,
    Seal,
    StorageReport,
    publish_bytes,
    publish_via,
    scrub,
    verified_read,
    verify,
)
from repro.storage.envelope import RAW

PAYLOAD = b"eight hundred frames of 240p video"


def make_store(tmp_path, name="entry.bin", schema="v1/test"):
    """Publish one sealed artifact and return (path, quarantine)."""
    root = tmp_path / "store"
    path = root / name
    publish_bytes(path, PAYLOAD, seal=Seal("test", schema))
    report = StorageReport()
    return path, Quarantine(root, label="test store", report=report)


def test_verified_read_roundtrip(tmp_path):
    path, quarantine = make_store(tmp_path)
    data = verified_read(path, quarantine=quarantine, expected_schema="v1/test")
    # The whole file comes back; the payload is every byte before the
    # trailer.
    assert data == path.read_bytes()
    assert data[: verify(data).size] == PAYLOAD
    assert quarantine.report.verified == 1
    assert quarantine.count == 0


def test_trailer_roundtrip(tmp_path):
    path, _ = make_store(tmp_path)
    envelope = verify(path.read_bytes())
    assert envelope.size == len(PAYLOAD)
    assert (envelope.kind, envelope.schema) == ("test", "v1/test")
    assert envelope.sha256 == publish_bytes(tmp_path / "x", PAYLOAD)


def test_missing_artifact_is_a_plain_miss(tmp_path):
    _, quarantine = make_store(tmp_path)
    assert verified_read(
        tmp_path / "store" / "absent.bin", quarantine=quarantine
    ) is None
    assert quarantine.count == 0


def test_artifact_without_a_trailer_is_quarantined(tmp_path):
    # An artifact published before envelopes were sealed inside files,
    # or by anything else: nothing can verify it.
    path, quarantine = make_store(tmp_path)
    publish_bytes(path, PAYLOAD)
    with pytest.warns(RuntimeWarning, match="no envelope trailer"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)


def test_corrupt_artifact_is_quarantined_not_raised(tmp_path):
    path, quarantine = make_store(tmp_path)
    path.write_bytes(PAYLOAD[: len(PAYLOAD) // 2])
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)


def test_quarantine_warns_once_per_store(tmp_path):
    first, quarantine = make_store(tmp_path, name="a.bin")
    second = tmp_path / "store" / "b.bin"
    publish_bytes(second, PAYLOAD, seal=Seal("test", "v1/test"))
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


def test_garbled_trailer_quarantines_the_artifact(tmp_path):
    path, quarantine = make_store(tmp_path)
    _garble_trailer(path)
    with pytest.warns(RuntimeWarning, match="malformed envelope"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)


def test_unsupported_envelope_version_is_integrity_error(tmp_path):
    path, _ = make_store(tmp_path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, len(data) - 10, 99)
    with pytest.raises(IntegrityError, match="unsupported envelope") as info:
        verify(bytes(data))
    assert info.value.problem == "bad-envelope"
    assert ENVELOPE_VERSION != 99


# ----------------------------------------------------------------------
# The decisions every verified read keeps, whatever its path type
# ----------------------------------------------------------------------

def assert_quarantined(path, quarantine):
    assert quarantine.count == 1
    assert not path.exists()
    names = {p.name for p in quarantine.directory.iterdir()}
    assert names == {path.name}


#: Where each field of a make_store artifact's trailer lies.
_KIND = len(PAYLOAD)
_SHA = _KIND + len("test") + len("v1/test")
TRAILER_FIELDS = {
    "kind": (_KIND, _KIND + len("test")),
    "schema": (_KIND + len("test"), _SHA),
    "sha256": (_SHA, _SHA + 32),
    "bytes": (_SHA + 32, _SHA + 40),
}


def test_same_length_corruption_is_caught_by_the_digest(tmp_path):
    path, quarantine = make_store(tmp_path)
    flipped = bytearray(path.read_bytes())
    flipped[len(PAYLOAD) // 2] ^= 0xFF
    path.write_bytes(bytes(flipped))
    # The trailer parses and the size check passes.
    with pytest.raises(IntegrityError, match="envelope says 34") as info:
        verify(bytes(flipped))
    assert info.value.problem == "checksum-mismatch"
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)
    assert quarantine.report.verified == 0


@pytest.mark.parametrize("field", ["kind", "schema", "sha256", "bytes"])
def test_envelope_missing_a_field_quarantines_the_pair(tmp_path, field):
    # The artifact and its envelope are one file now: a trailer written
    # without one of its fields fails to parse and the file goes.
    path, quarantine = make_store(tmp_path)
    lo, hi = TRAILER_FIELDS[field]
    data = path.read_bytes()
    path.write_bytes(data[:lo] + data[hi:])
    with pytest.raises(IntegrityError, match="malformed envelope"):
        verify(path.read_bytes())
    with pytest.warns(RuntimeWarning, match="malformed envelope"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "latin-1"])
def test_trailer_kind_that_is_not_utf8_is_malformed(tmp_path, encoding):
    # A trailer whose CRC checks out but whose kind is not UTF-8.
    path, quarantine = make_store(tmp_path)
    kind = ("tést" if encoding == "latin-1" else "test").encode(encoding)
    body = kind + b"v1/test" + struct.pack(
        "<32sQHH", bytes(32), len(PAYLOAD), len(kind), len("v1/test")
    )
    path.write_bytes(PAYLOAD + body + struct.pack(
        "<IH8s", zlib.crc32(body), ENVELOPE_VERSION, b"REPROENV"
    ))
    with pytest.raises(IntegrityError, match="malformed envelope"):
        verify(path.read_bytes())
    with pytest.warns(RuntimeWarning, match="malformed envelope"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)


# ----------------------------------------------------------------------
# Strict envelope fields
# ----------------------------------------------------------------------

# A value of the wrong type for each field, as a loose writer could
# hand it over (True == 1, a float size, anything str()-able as a kind,
# schema or digest).  Each is written into its slot as its own type's
# bytes, with the CRC recomputed, so only the field checks can refuse it.
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


def _as_bytes(value, width=None):
    """``value`` as its own type encodes it, fitted to a ``width``-byte
    slot (``None``: a length-prefixed text slot)."""
    if isinstance(value, bytes):
        raw = value
    elif isinstance(value, bool):
        raw = struct.pack("<?", value)
    elif isinstance(value, int):
        raw = value.to_bytes(width or 8, "little")
    elif isinstance(value, float):
        raw = struct.pack("<e" if width == 2 else "<d", value)
    elif isinstance(value, str):
        raw = value.encode()
    else:
        raw = json.dumps(value).encode()
    return raw if width is None else raw[:width].ljust(width, b"\0")


def rewrite_trailer(path, **changes):
    """Reseal ``path`` (a make_store artifact) with ``changes`` applied
    to its trailer's fields."""
    envelope = verify(path.read_bytes())
    fields = {
        "envelope": ENVELOPE_VERSION,
        "kind": envelope.kind,
        "schema": envelope.schema,
        "sha256": bytes.fromhex(envelope.sha256),
        "bytes": envelope.size,
        **changes,
    }
    kind, schema = _as_bytes(fields["kind"]), _as_bytes(fields["schema"])
    body = (kind + schema + _as_bytes(fields["sha256"], 32)
            + _as_bytes(fields["bytes"], 8)
            + struct.pack("<HH", len(kind), len(schema)))
    path.write_bytes(PAYLOAD + body + struct.pack("<I", zlib.crc32(body))
                     + _as_bytes(fields["envelope"], 2) + b"REPROENV")


def test_rewrite_trailer_without_changes_still_verifies(tmp_path):
    path, _ = make_store(tmp_path)
    sealed = path.read_bytes()
    rewrite_trailer(path)
    assert path.read_bytes() == sealed


@pytest.mark.parametrize("changes", BAD_FIELDS, ids=repr)
def test_envelope_field_of_the_wrong_type_is_malformed(tmp_path, changes):
    path, quarantine = make_store(tmp_path)
    rewrite_trailer(path, **changes)
    with pytest.raises(IntegrityError):
        verify(path.read_bytes())
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert verified_read(path, quarantine=quarantine) is None
    assert_quarantined(path, quarantine)
    assert quarantine.report.verified == 0


@pytest.mark.parametrize("changes", BAD_FIELDS, ids=repr)
def test_fsck_reports_a_wrongly_typed_envelope_as_garbled(tmp_path, changes):
    path, _ = make_store(tmp_path, name="entry.pkl")
    rewrite_trailer(path, **changes)
    [store] = scrub([tmp_path / "store"]).stores
    [field] = changes
    expected = ("checksum-mismatch" if field in ("sha256", "bytes")
                else "bad-envelope")
    assert [f.problem for f in store.findings] == [expected]
    assert store.verified == 0


def _corrupt(path):
    data = path.read_bytes()
    path.write_bytes(b"x" + data[1:])


def _strip_trailer(path):
    path.write_bytes(PAYLOAD)


def _garble_trailer(path):
    data = bytearray(path.read_bytes())
    lo, _ = TRAILER_FIELDS["kind"]
    data[lo] ^= 0x20
    path.write_bytes(bytes(data))


def _remove_artifact(path):
    path.unlink()


@pytest.mark.parametrize(
    "damage, schema",
    [
        (None, "v1/test"),
        (None, "v2/other"),
        (_corrupt, None),
        (_strip_trailer, None),
        (_garble_trailer, None),
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
# Quarantine keeps every copy
# ----------------------------------------------------------------------

def test_quarantining_the_same_entry_twice_keeps_both_copies(tmp_path):
    root = tmp_path / "store"
    quarantine = Quarantine(root, label="test store")
    entry = root / "ab" / "abc.pkl"
    entry.parent.mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for copy in (b"first copy", b"second copy", b"third copy"):
            entry.write_bytes(copy)
            quarantine.take(entry, "test")
    kept = {p.name: p.read_bytes() for p in quarantine.directory.iterdir()}
    assert kept == {"abc.pkl": b"first copy", "abc.1.pkl": b"second copy",
                    "abc.2.pkl": b"third copy"}
    assert quarantine.count == 3


def test_quarantining_a_vanished_artifact_counts_nothing(tmp_path):
    quarantine = Quarantine(tmp_path, label="test store")
    quarantine.take(tmp_path / "gone.pkl", "test")
    assert quarantine.count == 0


# ----------------------------------------------------------------------
# Placements: each sealed file stays readable by its own format
# ----------------------------------------------------------------------

def _fill_raw(payload):
    return lambda fh: fh.write(payload)


def _fill_zip(payload):
    return lambda fh: np.savez(fh, a=np.frombuffer(payload, dtype=np.uint8))


PLACEMENTS = {RAW: _fill_raw, ZIP_COMMENT: _fill_zip}


def _sealed(path, placement, payload):
    publish_via(path, PLACEMENTS[placement](payload),
                seal=Seal("test", "v1/test", placement))
    return path.read_bytes()


def test_zip_comment_placement_keeps_the_members(tmp_path):
    data = _sealed(tmp_path / "a.npz", ZIP_COMMENT, PAYLOAD)
    envelope = verify(data)
    start = envelope.size
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        assert archive.comment == data[start:]
        assert archive.namelist() == ["a.npy"]
    with np.load(io.BytesIO(data)) as npz:
        assert npz["a"].tobytes() == PAYLOAD


def test_seal_refuses_a_zip_payload_with_a_comment(tmp_path):
    def fill(fh):
        with zipfile.ZipFile(fh, "w") as archive:
            archive.comment = b"already taken"
            archive.writestr("a", b"x")

    with pytest.raises(ValueError, match="comment-free zip"):
        publish_via(tmp_path / "a.npz", fill,
                    seal=Seal("test", "v1/test", ZIP_COMMENT))
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Property: no single-byte flip and no truncation ever reads back
# ----------------------------------------------------------------------

def _assert_refused(data, placement):
    """``data`` (a damaged sealed file) is an fsck integrity finding,
    and a verified read quarantines it and returns nothing."""
    suffix = {RAW: ".pkl", ZIP_COMMENT: ".npz"}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / f"entry{suffix[placement]}"
        path.write_bytes(data)
        report = scrub([root])
        assert report.exit_code == 1
        [finding] = report.integrity_findings
        assert finding.problem in ("bad-envelope", "checksum-mismatch")
        quarantine = Quarantine(root, label="property")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert verified_read(path, quarantine=quarantine) is None
        assert quarantine.count == 1 and not path.exists()


_SEALED = st.tuples(
    st.sampled_from(sorted(PLACEMENTS)), st.binary(max_size=64)
)


def _sealed_bytes(placement, payload):
    with tempfile.TemporaryDirectory() as tmp:
        return _sealed(Path(tmp) / "entry", placement, payload)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sealed=_SEALED, where=st.floats(0, 1, exclude_max=True),
       mask=st.integers(1, 255))
def test_any_single_byte_flip_is_refused(sealed, where, mask):
    data = bytearray(_sealed_bytes(*sealed))
    data[int(where * len(data))] ^= mask
    _assert_refused(bytes(data), sealed[0])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sealed=_SEALED, where=st.floats(0, 1, exclude_max=True))
def test_any_truncation_is_refused(sealed, where):
    data = _sealed_bytes(*sealed)
    _assert_refused(data[: int(where * len(data))], sealed[0])


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_every_byte_of_a_sealed_file_is_covered(tmp_path, placement):
    """Exhaustive companion of the two properties on one small file."""
    data = _sealed(tmp_path / "entry", placement, b"coal not diamonds")
    for index in range(len(data)):
        flipped = bytearray(data)
        flipped[index] ^= 0x01
        with pytest.raises(IntegrityError):
            verify(bytes(flipped))
    for size in range(len(data)):
        with pytest.raises(IntegrityError):
            verify(data[:size])
    verify(data)
