"""The trace backend's quick rows, pinned in tier-1.

The golden set (``tests/experiments/golden_quick_hashes.json``) holds
analytic rows only.  This runs each experiment of the ``"trace"`` table
of ``benchmarks/e2e/expected_digests.json`` (the accel-trace workload's
ten) quick under a ``RunSpec(backend="trace")`` session and compares its
rows digest with the table's, the benchmark's own encoding.  The file
is only read here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runtime import RunSpec, Session

DIGESTS_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "expected_digests.json"
)
TRACE_DIGESTS = json.loads(DIGESTS_PATH.read_text())["trace"]


@pytest.fixture(scope="module")
def trace_session() -> Session:
    return Session(RunSpec(backend="trace"))


@pytest.mark.parametrize("experiment_id", sorted(TRACE_DIGESTS))
def test_trace_rows_match_the_benchmark_digest(trace_session, experiment_id):
    from repro.experiments.registry import run_all

    rows = run_all(
        only=[experiment_id], quick=True, session=trace_session,
    )[0].rows
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode(),
    ).hexdigest()
    assert digest == TRACE_DIGESTS[experiment_id], experiment_id
