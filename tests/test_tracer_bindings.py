"""Every name the end-to-end benchmark's tracer wraps still exists.

``benchmarks/e2e/e2e_tracer.py`` patches ``repro`` functions and
methods by ``"module:qualname"``; a refactor that deletes or renames one
would crash the traced benchmark child.  This resolves each target with
the tracer's own ``_resolve``, so the failure shows up here instead.
The tracer imports nothing from ``repro`` at import time, so it loads
by path without side effects.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "e2e_tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TARGETS = [
    target for _, targets in TRACER.SPAN_TARGETS for target in targets
] + list(TRACER.CACHE_TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    owner, attr, raw = TRACER._resolve(target)
    assert callable(getattr(raw, "__func__", raw)), target
