"""Tier-1 runs against a temporary cache root, never the user's."""

from pathlib import Path

from repro.arena.driver import default_arena_cache_dir
from repro.experiments.parallel import default_cache_dir
from repro.trace.store import default_trace_dir


def test_default_stores_lie_outside_the_home_directory():
    home = Path.home().resolve()
    for root in (default_cache_dir(), default_trace_dir(),
                 default_arena_cache_dir()):
        assert home not in root.resolve().parents, root
