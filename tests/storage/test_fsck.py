"""`repro fsck`: scrub classification, repair, reporting, exit codes."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.arena import default_arena_cache_dir
from repro.arena.leaderboard import _payload_digest, artifact_bytes
from repro.experiments.parallel import ResultCache
from repro.storage import (
    FsckReport,
    Seal,
    default_roots,
    publish_bytes,
    record_crc,
    scrub,
)

PAYLOAD = b"a cohort of one million simulated handsets"


def publish_enveloped(root, name="entry.pkl"):
    path = root / name
    publish_bytes(path, PAYLOAD, seal=Seal("test", "v1/test"))
    return path


def problems(report):
    return sorted(
        finding.problem for store in report.stores for finding in store.findings
    )


def test_clean_store_scrubs_clean(tmp_path):
    publish_enveloped(tmp_path)
    report = scrub([tmp_path])
    assert report.clean and report.exit_code == 0
    [store] = report.stores
    assert (store.artifacts, store.verified) == (1, 1)


def test_missing_roots_are_skipped_silently(tmp_path):
    report = scrub([tmp_path / "never-created"])
    assert report.clean
    assert report.stores == []


def test_orphan_tmp_is_an_integrity_finding_until_repaired(tmp_path):
    publish_enveloped(tmp_path)
    orphan = tmp_path / "entry.pklXXXX.tmp"
    orphan.write_bytes(b"dead writer debris")
    report = scrub([tmp_path])
    assert not report.clean and report.exit_code == 1
    assert problems(report) == ["orphan-tmp"]

    repaired = scrub([tmp_path], repair=True)
    assert repaired.clean  # repaired findings no longer count
    assert not orphan.exists()
    assert scrub([tmp_path]).clean


def test_leftover_sidecar_is_an_orphan_sidecar_finding(tmp_path, capsys):
    publish_enveloped(tmp_path)
    (tmp_path / "entry.pkl.env.json").write_text('{"v": 1}')
    report = scrub([tmp_path])
    assert problems(report) == ["orphan-sidecar"]
    [store] = report.stores
    assert (store.artifacts, store.verified, store.unenveloped) == (1, 1, 0)
    assert cli.main(["fsck", "--root", str(tmp_path)]) == 1
    assert "orphan-sidecar" in capsys.readouterr().out


def test_repair_deletes_a_leftover_sidecar_and_keeps_its_artifact(tmp_path):
    artifact = publish_enveloped(tmp_path)
    sidecar = tmp_path / "entry.pkl.env.json"
    sidecar.write_text('{"v": 1}')
    repaired = scrub([tmp_path], repair=True)
    assert repaired.clean
    assert [f.repaired for f in repaired.stores[0].findings] == [True]
    assert not sidecar.exists() and artifact.exists()
    assert scrub([tmp_path]).clean


def test_checksum_mismatch_is_detected(tmp_path):
    path = publish_enveloped(tmp_path)
    data = bytearray(path.read_bytes())
    data[5] ^= 0x01  # a payload byte: the trailer still parses
    path.write_bytes(bytes(data))
    report = scrub([tmp_path])
    assert problems(report) == ["checksum-mismatch"]
    assert not report.clean


@pytest.mark.parametrize("name", ["entry.pkl", "c.npz"])
def test_artifact_without_a_trailer_is_a_bad_envelope_until_repaired(
    tmp_path, name
):
    path = tmp_path / name
    publish_bytes(path, PAYLOAD)  # no seal: nothing to verify it by
    report = scrub([tmp_path])
    assert problems(report) == ["bad-envelope"] and report.exit_code == 1
    assert report.stores[0].verified == 0

    with pytest.warns(RuntimeWarning, match="quarantined"):
        repaired = scrub([tmp_path], repair=True)
    assert repaired.clean
    assert repaired.stores[0].findings[0].repaired
    assert not path.exists()
    assert (tmp_path / "quarantine" / name).read_bytes() == PAYLOAD
    after = scrub([tmp_path])
    assert after.clean and after.stores[0].quarantined == 1


def test_repair_quarantines_a_checksum_mismatch(tmp_path):
    path = publish_enveloped(tmp_path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        repaired = scrub([tmp_path], repair=True)
    assert [f.problem for f in repaired.stores[0].findings] == [
        "checksum-mismatch"
    ]
    assert repaired.clean and not path.exists()


def test_leaderboard_table_is_unenveloped_and_informational(tmp_path):
    (tmp_path / "leaderboard-0123456789abcdef.txt").write_text("standings\n")
    report = scrub([tmp_path])
    assert report.clean
    store = report.stores[0]
    assert (store.artifacts, store.unenveloped, store.verified) == (1, 1, 0)
    assert store.findings == []


def _leaderboard(tmp_path):
    """Publish a (toy) leaderboard as write_artifact names and writes it."""
    board = {"kind": "arena-leaderboard", "standings": [1, 2, 3]}
    board["digest"] = _payload_digest(board)
    json_path = tmp_path / f"leaderboard-{board['digest'][:16]}.json"
    publish_bytes(json_path, artifact_bytes(board))
    return json_path, board


def test_leaderboard_verifies_against_its_embedded_digest(tmp_path):
    _leaderboard(tmp_path)
    report = scrub([tmp_path])
    assert report.clean
    store = report.stores[0]
    assert (store.artifacts, store.verified, store.unenveloped) == (1, 1, 0)


@pytest.mark.parametrize("where", [0, 20, -30, -1])
def test_flipped_leaderboard_byte_makes_fsck_exit_1(tmp_path, capsys, where):
    json_path, _ = _leaderboard(tmp_path)
    data = bytearray(json_path.read_bytes())
    data[where] ^= 0x01
    json_path.write_bytes(bytes(data))
    assert cli.main(["fsck", "--root", str(tmp_path)]) == 1
    assert "checksum-mismatch" in capsys.readouterr().out


def test_renamed_leaderboard_is_a_checksum_mismatch(tmp_path):
    json_path, _ = _leaderboard(tmp_path)
    json_path.rename(tmp_path / "leaderboard-0000000000000000.json")
    assert problems(scrub([tmp_path])) == ["checksum-mismatch"]


def test_quarantined_files_are_counted_not_scrubbed(tmp_path):
    publish_enveloped(tmp_path)
    debris = tmp_path / "quarantine" / "old-entry.bin"
    debris.parent.mkdir()
    debris.write_bytes(b"whatever it was when it died")
    report = scrub([tmp_path])
    assert report.clean
    assert report.stores[0].quarantined == 1


def test_bare_fsck_counts_a_nested_store_quarantine(tmp_path, monkeypatch):
    """An arena entry the cache quarantined on read is evidence in
    ``<cache>/arena/quarantine/``, not corruption, and stays put."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    arena = ResultCache(default_arena_cache_dir(), surface="arena-cache")
    key = "ab" * 32
    arena.put(key, PAYLOAD)
    path = arena.path_for(key)
    data = bytearray(path.read_bytes())
    data[5] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert arena.get(key) is None
    [evidence] = (tmp_path / "arena" / "quarantine").iterdir()

    for repair in (False, True):
        report = scrub(default_roots(), repair=repair)
        assert report.clean
        [store] = report.stores
        assert store.quarantined == 1 and store.findings == []
    assert evidence.exists()


def test_bare_fsck_scrubs_each_trace_once(tmp_path, monkeypatch, capsys):
    """The default trace store lies in the cache root and is scrubbed by
    its walk alone; a ``REPRO_TRACE_DIR`` elsewhere is a root of its own."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    (cache / "traces").mkdir(parents=True)
    publish_enveloped(cache / "traces", "k.trace.npz")
    assert default_roots() == [cache]

    def verified_per_store():
        assert cli.main(["fsck", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        return [store["verified"] for store in payload["stores"]]

    assert verified_per_store() == [1]

    elsewhere = tmp_path / "traces"
    elsewhere.mkdir()
    publish_enveloped(elsewhere, "k.trace.npz")
    monkeypatch.setenv("REPRO_TRACE_DIR", str(elsewhere))
    assert default_roots() == [cache, elsewhere]
    assert verified_per_store() == [1, 1]


def test_journal_scrub_flags_exactly_the_torn_records(tmp_path):
    journal = tmp_path / "sweep.journal"
    good = {"key": "k1", "result": "QUJD", "crc": record_crc("k1\x00QUJD")}
    torn = {"key": "k2", "result": "QUJD", "crc": "00000000"}
    journal.write_text(
        json.dumps({"journal": "repro-sweep", "version": 2, "schema": 1})
        + "\n" + json.dumps(good) + "\n" + json.dumps(torn) + "\n"
        + '{"key": "k3", "result": "QUJ'  # kill mid-append
    )
    report = scrub([tmp_path])
    assert problems(report) == ["torn-journal-record", "torn-journal-record"]
    assert report.stores[0].journal_records == 1


def test_fsck_payload_roundtrips_through_json(tmp_path):
    publish_enveloped(tmp_path)
    (tmp_path / "orphan.tmp").write_bytes(b"x")
    report = scrub([tmp_path])
    payload = json.loads(json.dumps(report.to_payload(), sort_keys=True))
    restored = FsckReport.from_payload(payload)
    assert restored.clean == report.clean
    assert [s.to_payload() for s in restored.stores] == [
        s.to_payload() for s in report.stores
    ]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_fsck_cli_json_clean_store(tmp_path, capsys):
    publish_enveloped(tmp_path)
    assert cli.main(["fsck", "--root", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["integrity_findings"] == 0
    assert FsckReport.from_payload(payload).clean


def test_fsck_cli_exit_1_on_integrity_findings(tmp_path, capsys):
    publish_enveloped(tmp_path)
    (tmp_path / "entry.pklXXXX.tmp").write_bytes(b"debris")
    assert cli.main(["fsck", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "orphan-tmp" in out
    assert "1 integrity finding" in out


def test_fsck_cli_repair_then_clean(tmp_path, capsys):
    publish_enveloped(tmp_path)
    (tmp_path / "entry.pklXXXX.tmp").write_bytes(b"debris")
    assert cli.main(["fsck", "--root", str(tmp_path), "--repair"]) == 0
    capsys.readouterr()
    assert cli.main(["fsck", "--root", str(tmp_path)]) == 0


def test_fsck_cli_exit_2_on_missing_root(tmp_path, capsys):
    assert cli.main(["fsck", "--root", str(tmp_path / "nope")]) == 2
    assert "no such store root" in capsys.readouterr().err
