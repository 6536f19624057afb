"""Rule registry for ``repro lint``.

Rules are grouped by family — determinism and robustness (REP1xx),
contracts (REP2xx), typing gate (REP3xx) — and instantiated fresh per
run (rules
are allowed to keep per-run state).  ``REP001`` (syntax error) is
reported by the engine itself and has no class here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ..engine import Rule
from .boundaries import BOUNDARY_RULES
from .contracts import CONTRACT_RULES
from .determinism import DETERMINISM_RULES
from .robustness import ROBUSTNESS_RULES
from .typing_rules import TYPING_RULES

ALL_RULE_CLASSES: Sequence[Type[Rule]] = (
    *DETERMINISM_RULES,
    *BOUNDARY_RULES,
    *ROBUSTNESS_RULES,
    *CONTRACT_RULES,
    *TYPING_RULES,
)


def rule_catalog() -> Dict[str, Type[Rule]]:
    """Rule id -> class, in registry order."""
    catalog: Dict[str, Type[Rule]] = {}
    for cls in ALL_RULE_CLASSES:
        if cls.id in catalog:
            raise ValueError(f"duplicate rule id {cls.id}")
        catalog[cls.id] = cls
    return catalog


def build_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the rule set, optionally restricted to ``only`` ids."""
    catalog = rule_catalog()
    if only is None:
        return [cls() for cls in catalog.values()]
    selected: List[Rule] = []
    for rule_id in only:
        normalized = rule_id.strip().upper()
        if normalized not in catalog:
            known = ", ".join(sorted(catalog))
            raise KeyError(f"unknown rule {rule_id!r} (known: {known})")
        selected.append(catalog[normalized]())
    return selected
