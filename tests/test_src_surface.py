"""``src/`` ships no bit-identity oracles.

An AST scan over every module under ``src/repro``: no function or method
there is named ``*_reference``.  Oracles live in ``tests/oracles/``,
next to the tests that use them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The one oracle still in ``src/``.  abl-allocator reports it as the
#: "greedy (reference loop)" row and the e2e tracer binds it; ROADMAP
#: item 2 names its unblocker (that row becomes a ``bench_hotpaths``
#: entry and the tracer target goes, in one [benchmark] PR).
ALLOWED_REFERENCES = {
    "repro/allocation/greedy.py::greedy_allocation_reference",
}


def test_no_reference_oracles_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    found = {
        f"{path.relative_to(SRC.parent).as_posix()}::{node.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    }
    assert found - ALLOWED_REFERENCES == set(), (
        "oracles belong in tests/oracles/, not src/:\n"
        + "\n".join(sorted(found - ALLOWED_REFERENCES))
    )
