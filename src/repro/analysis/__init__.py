"""Static analysis: the determinism & contract linter behind ``repro lint``.

The runtime validation subsystem (:mod:`repro.validate`) detects broken
invariants while a session runs; this package is its static
counterpart — it rejects, at lint time, the code patterns that would
eventually break them: wall-clock reads, global RNG draws, salted
``hash()``, set-iteration ordering, emit/subscribe topic drift,
cache-schema drift, and unpicklable callables bound for the parallel
fabric.  See ``docs/static-analysis.md`` for the rule catalog and the
suppression/baseline policy.
"""

from __future__ import annotations

from .baseline import load_baseline, split_baselined, write_baseline
from .engine import Finding, LintResult, Rule, SourceFile, collect_files, run_rules
from .rules import ALL_RULE_CLASSES, build_rules, rule_catalog

__all__ = [
    "ALL_RULE_CLASSES",
    "Finding",
    "LintResult",
    "Rule",
    "SourceFile",
    "build_rules",
    "collect_files",
    "load_baseline",
    "rule_catalog",
    "run_rules",
    "split_baselined",
    "write_baseline",
]
