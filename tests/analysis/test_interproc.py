"""The whole-program passes: taint chains, pickle escapes, emit schemas.

Each REP12x/REP13x/REP22x rule is pinned to its bad fixture (it must
fire there, with the right shape of message) and to its good twin (it
must stay silent).  A hypothesis property then locks the analyses'
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
from repro.analysis.project import ProjectIndex

FIXTURES = Path(__file__).parent / "fixtures"

TAINT = FIXTURES / "repro" / "taint"
BOUNDARY = FIXTURES / "repro" / "boundary"
BUS = FIXTURES / "repro" / "bus"


def findings_for(paths, rules=None):
    files = collect_files([FIXTURES / p for p in paths], FIXTURES)
    findings, _ = run_rules(files, build_rules(rules))
    return findings


def rules_fired(paths, rules=None):
    return {f.rule for f in findings_for(paths, rules)}


# ----------------------------------------------------------------------
# REP120-series: interprocedural determinism taint
# ----------------------------------------------------------------------
def test_wallclock_chain_two_calls_deep_fires_rep120():
    findings = findings_for(
        ["repro/taint/bad_chain.py", "repro/taint/helpers.py"]
    )
    taint = [f for f in findings if f.rule == "REP120"]
    assert len(taint) == 1
    finding = taint[0]
    assert finding.path == "repro/taint/bad_chain.py"
    assert "wall-clock" in finding.message
    assert "derive_seed" in finding.message
    # The witness chain proves the flow crossed >= 2 calls into
    # another module before reaching the sink.
    assert "via relay() -> mix() -> entropy_ns()" in finding.message


def test_taint_support_module_is_clean_alone():
    # helpers.py produces tainted values but has no sink: silent.
    assert rules_fired(["repro/taint/helpers.py"]) == set()


def test_good_chain_is_silent():
    assert "REP120" not in rules_fired(
        ["repro/taint/good_chain.py", "repro/taint/helpers.py"]
    )


def test_unseeded_random_into_seed_kwarg_fires_rep121():
    findings = findings_for(["repro/taint/bad_random_seed.py"])
    assert {f.rule for f in findings} == {"REP121"}
    assert "seed=" in findings[0].message


def test_good_random_seed_is_silent():
    assert rules_fired(["repro/taint/good_random_seed.py"]) == set()


def test_environ_into_cache_key_fires_rep122():
    findings = findings_for(["repro/taint/bad_env_key.py"])
    assert {f.rule for f in findings} == {"REP122"}
    assert "cache_key" in findings[0].message


def test_env_for_output_paths_is_silent():
    assert rules_fired(["repro/taint/good_env_key.py"]) == set()


def test_set_order_into_journal_fires_rep123():
    findings = findings_for(["repro/taint/bad_set_order.py"])
    assert {f.rule for f in findings} == {"REP123"}
    assert "journal.record" in findings[0].message


def test_sorted_set_is_silent():
    assert rules_fired(["repro/taint/good_set_order.py"]) == set()


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


# ----------------------------------------------------------------------
# REP220-series: emit-bus payload schemas
# ----------------------------------------------------------------------
def test_cross_module_shape_mismatch_fires_rep220():
    findings = findings_for(
        ["repro/bus/bad_shape_emitter.py", "repro/bus/bad_shape_subscriber.py"]
    )
    rep220 = [f for f in findings if f.rule == "REP220"]
    paths = {f.path for f in rep220}
    # Both sides of the cross-module break are reported: the handler
    # missing its required key, and the emit site passing a key the
    # handler cannot accept.
    assert "repro/bus/bad_shape_subscriber.py" in paths
    assert "repro/bus/bad_shape_emitter.py" in paths
    messages = " | ".join(f.message for f in rep220)
    assert "'frames'" in messages
    assert "'frame_total'" in messages


def test_dead_payload_key_fires_rep221():
    findings = findings_for(["repro/bus/bad_dead_key.py"])
    assert {f.rule for f in findings} == {"REP221"}
    assert "'reserved'" in findings[0].message


def test_phantom_payload_key_fires_rep222():
    findings = findings_for(["repro/bus/bad_phantom_key.py"])
    assert {f.rule for f in findings} == {"REP222"}
    assert "'vsync_missed'" in findings[0].message


def test_matching_bus_shapes_are_silent():
    assert rules_fired(["repro/bus/good_bus.py"]) == set()


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


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_call_graph_is_order_independent(seed):
    files = collect_files([FIXTURES / "repro"], FIXTURES)
    facts = [
        analyze_file(src, []).facts for src in files if src.tree is not None
    ]
    baseline = ProjectIndex(facts).call_graph.edges()

    shuffled_facts = list(facts)
    random.Random(seed).shuffle(shuffled_facts)
    shuffled = ProjectIndex(shuffled_facts).call_graph.edges()
    assert shuffled == baseline
