"""``src/`` never imports ``tests``.

Bit-identity oracles live in ``tests/oracles/`` and import production
code to compare against it; the dependency must stay one-way, or
``src/`` would stop working without the test tree.  This parses every
module under ``src/repro`` and fails on any ``import tests...`` or
``from tests... import ...``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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
