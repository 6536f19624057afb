"""The whole-program passes: pickle escapes and determinism sources.

Each REP13x rule is pinned to its bad fixture (it must fire there, with
the right shape of message) and to its good twin (it must stay silent).  The determinism hazards once traced from source to sink
(wall clock into a seed, an unseeded draw into ``seed=``, set order
into a journal) are pinned the same way, now flagged at the source by
REP101/REP102/REP104.  A hypothesis property then locks the analyses'
order-independence: facts extracted from any permutation of the file
list must produce identical findings, so the sorted report depends on
the file contents alone, never on discovery order.
"""

import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_rules, collect_files, run_rules
from repro.analysis.engine import analyze_file, finish_run

FIXTURES = Path(__file__).parent / "fixtures"

ENTROPY_BAD = "repro/experiments/bad_entropy_sources.py"
ENTROPY_GOOD = "repro/experiments/good_seeded_sources.py"


def findings_for(paths, rules=None):
    files = collect_files([FIXTURES / p for p in paths], FIXTURES)
    findings, _ = run_rules(files, build_rules(rules))
    return findings


def rules_fired(paths, rules=None):
    return {f.rule for f in findings_for(paths, rules)}


def line_of(rel_path, text):
    """1-based number of the one fixture line that contains ``text``."""
    lines = (FIXTURES / rel_path).read_text().splitlines()
    [number] = [n for n, line in enumerate(lines, start=1) if text in line]
    return number


# ----------------------------------------------------------------------
# Determinism hazards across calls: flagged where the source is read
# ----------------------------------------------------------------------
def test_wallclock_chain_two_calls_deep_fires_rep120():
    helper = "repro/experiments/entropy_relay.py"
    findings = findings_for([
        "repro/experiments/bad_relay_seed.py", helper,
    ])
    # The seed sink is two calls and one module away from the read;
    # the read itself is the one finding.
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("REP101", helper, line_of(helper, "time.time_ns()"))
    ]
    assert "time.time_ns" in findings[0].message
    assert rules_fired(["repro/experiments/bad_relay_seed.py"]) == set()


def test_good_chain_is_silent():
    # Seeds derived from the caller's master seed read no clock.
    assert "REP101" not in rules_fired([ENTROPY_GOOD])


def test_unseeded_random_into_seed_kwarg_fires_rep121():
    findings = findings_for([ENTROPY_BAD], ["REP102"])
    assert ("REP102", line_of(ENTROPY_BAD, "random.Random()")) in {
        (f.rule, f.line) for f in findings
    }
    assert any("unseeded random.Random" in f.message for f in findings)


def test_good_random_seed_is_silent():
    assert "REP102" not in rules_fired([ENTROPY_GOOD])


def test_env_for_output_paths_is_silent():
    # An environment variable that only picks an output directory is
    # no determinism hazard; keys are guarded at run time instead.
    assert line_of(ENTROPY_GOOD, "os.environ")
    assert rules_fired([ENTROPY_GOOD]) == set()


def test_set_order_into_journal_fires_rep123():
    findings = findings_for([ENTROPY_BAD], ["REP104"])
    assert [(f.rule, f.line) for f in findings] == [
        ("REP104", line_of(ENTROPY_BAD, "for name in pending"))
    ]


def test_sorted_set_is_silent():
    assert "REP104" not in rules_fired([ENTROPY_GOOD])


# ----------------------------------------------------------------------
# REP130: pickle-boundary escape analysis
# ----------------------------------------------------------------------
def test_nested_live_handle_fires_rep130():
    findings = findings_for(["repro/boundary/bad_handles.py"])
    escapes = [f for f in findings if f.rule == "REP130"]
    assert len(escapes) == 1
    message = escapes[0].message
    # The full field path is part of the finding: the handle is one
    # level of nesting down from the submitted class.
    assert "RenderJob" in message
    assert "workspace: Workspace" in message
    assert "TemporaryDirectory" in message


def test_plain_data_payload_is_silent():
    assert "REP130" not in rules_fired(["repro/boundary/good_handles.py"])


def test_factory_return_annotation_names_the_payload_rep130():
    findings = findings_for([
        "repro/boundary/bad_factory_payload.py", "repro/boundary/factories.py",
    ])
    escapes = [f for f in findings if f.rule == "REP130"]
    assert [(f.path, f.line) for f in escapes] == [
        ("repro/boundary/bad_factory_payload.py", 16)
    ]
    assert "UploadJob -> guard: Lock" in escapes[0].message
    # Without the factory's module the payload type is unknown: the
    # return annotation is the only link to it.
    assert "REP130" not in rules_fired(["repro/boundary/bad_factory_payload.py"])


def test_same_module_factory_names_the_payload_rep130():
    fixture = "repro/boundary/bad_local_factory_payload.py"
    escapes = [f for f in findings_for([fixture]) if f.rule == "REP130"]
    assert [(f.path, f.line) for f in escapes] == [
        (fixture, line_of(fixture, "return run_jobs(jobs, _upload)"))
    ]
    assert "UploadJob -> guard: Lock" in escapes[0].message


# ----------------------------------------------------------------------
# Order-independence: sorted output depends only on the file contents
# ----------------------------------------------------------------------
ALL_FIXTURE_FILES = sorted(
    src.rel for src in collect_files([FIXTURES / "repro"], FIXTURES)
)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_findings_are_order_independent_over_shuffled_files(seed):
    rules = build_rules(None)
    baseline_files = collect_files([FIXTURES / "repro"], FIXTURES)
    baseline = finish_run(
        [analyze_file(src, rules) for src in baseline_files], rules
    )

    shuffled_rels = list(ALL_FIXTURE_FILES)
    random.Random(seed).shuffle(shuffled_rels)
    shuffled_files = collect_files(
        [FIXTURES / rel for rel in shuffled_rels], FIXTURES
    )
    by_rel = {src.rel: src for src in shuffled_files}
    ordered_as_shuffled = [by_rel[rel] for rel in shuffled_rels]
    shuffled = finish_run(
        [analyze_file(src, rules) for src in ordered_as_shuffled], rules
    )
    assert shuffled == baseline
