"""Each public package imports cleanly in a fresh interpreter.

The study and experiments packages import each other (``repro.study.fleet``
runs on the experiment fabric; ``study_experiments`` builds the §3
population on the fleet engine).  A suite that has already imported
one of them hides an import cycle, so each entry point is imported in
its own subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", [
    "repro.study",
    "repro.study.cohort",
    "repro.study.fleet",
    "repro.experiments",
    "repro.cli",
])
def test_module_imports_in_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
