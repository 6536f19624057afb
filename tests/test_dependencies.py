"""The declared dependencies are all the package needs.

``pyproject.toml`` declares numpy alone, and CI's validation job
installs nothing else, so every import under ``src/repro`` must be
stdlib, ``repro`` itself, a declared dependency, or guarded by an
``except ImportError``.  The subprocess tests mask scipy, which many
scientific Python environments have installed, to prove the §3 fleet
and ``repro study`` never reach for it, not even lazily.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Iterator, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FLEET_RUN = """
    from repro.study.cohort import FleetConfig
    from repro.study.fleet import run_fleet

    result = run_fleet(
        FleetConfig(n_devices=6, hours_scale=0.01, seed=7), keep_logs=True
    )
    assert len(result.logs) == 6, len(result.logs)
"""


def _run_python(code: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(
        os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path)
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_fleet_and_study_run_with_scipy_masked(tmp_path):
    code = (
        "import sys\nsys.modules['scipy'] = None\n"
        + textwrap.dedent(FLEET_RUN)
        + textwrap.dedent("""
            from repro.cli import main

            sys.exit(main([
                "study", "--devices", "20", "--scale", "0.05",
                "--no-journal",
            ]))
        """)
    )
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "fabric: computed" in result.stdout, result.stdout


def test_fleet_run_does_not_import_scipy(tmp_path):
    code = textwrap.dedent(FLEET_RUN) + textwrap.dedent("""
        import sys

        print("scipy" in sys.modules)
    """)
    result = _run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False", result.stdout


# ----------------------------------------------------------------------
# Dependency closure
# ----------------------------------------------------------------------

def _declared_dependencies() -> Set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib

        requirements = tomllib.loads(text)["project"].get("dependencies", [])
    except ModuleNotFoundError:  # Python 3.10: parse the one array needed
        block = re.search(
            r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M
        ).group(1)
        requirements = re.findall(r'"([^"]+)"', block)
    names = set()
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _guards_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        types = handler.type
        elts = types.elts if isinstance(types, ast.Tuple) else [types]
        for elt in elts:
            if isinstance(elt, ast.Name) and elt.id in (
                "ImportError", "ModuleNotFoundError"
            ):
                return True
    return False


def _unguarded_imports(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """Top-level package of every absolute import outside an
    ``except ImportError`` guard, with its line number."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and _guards_import_error(node):
            for stmt in node.body:
                guarded.update(id(sub) for sub in ast.walk(stmt))
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0], node.lineno


@pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="sys.stdlib_module_names needs Python 3.10",
)
def test_every_import_is_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    allowed |= _declared_dependencies()
    undeclared = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, lineno in _unguarded_imports(tree):
            if name not in allowed:
                rel = path.relative_to(ROOT)
                undeclared.append(f"{rel}:{lineno}: {name}")
    assert undeclared == [], (
        "imports neither stdlib nor declared in pyproject.toml:\n"
        + "\n".join(undeclared)
    )
