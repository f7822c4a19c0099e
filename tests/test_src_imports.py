"""What ``src/`` imports: never ``tests``, and only declared packages.

Bit-identity oracles live in ``tests/oracles/`` and import production
code to compare against it; the dependency must stay one-way, or
``src/`` would stop working without the test tree.  This parses every
module under ``src/repro`` and fails on any ``import tests...`` or
``from tests... import ...``.  It also fails on a top-level third-party
module imported there but missing from ``[project].dependencies`` in
``pyproject.toml``, so an install never silently misses one (stdlib
modules are told apart with ``sys.stdlib_module_names``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def test_src_never_imports_tests():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}: {module}"
        for path in files
        for lineno, module in _imported_modules(ast.parse(path.read_text()))
        if module == "tests" or module.startswith("tests.")
    ]
    assert not offenders, (
        "src/ imports the test tree (oracles belong to tests/ only):\n"
        + "\n".join(offenders)
    )


def _declared_dependencies() -> set:
    """Distribution names in ``[project].dependencies``.

    Read with a regex rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml has no [project].dependencies list"
    names = re.findall(r"[\"']\s*([A-Za-z0-9][A-Za-z0-9._-]*)", match.group(1))
    return {name.lower().replace("-", "_") for name in names}


def test_third_party_imports_are_declared():
    third_party = {}
    for path in sorted(SRC.rglob("*.py")):
        for lineno, module in _imported_modules(ast.parse(path.read_text())):
            top = module.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                third_party.setdefault(
                    top, f"{path.relative_to(SRC.parent)}:{lineno}",
                )
    assert third_party, "expected at least numpy among the imports"
    missing = sorted(set(third_party) - _declared_dependencies())
    assert not missing, (
        "imported under src/ but not in pyproject.toml dependencies: "
        + ", ".join(f"{top} ({third_party[top]})" for top in missing)
    )
