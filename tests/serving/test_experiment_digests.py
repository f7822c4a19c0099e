"""The three serving experiments' quick rows, pinned at seed 0.

``benchmarks/e2e/expected_digests.json`` records every experiment's
quick-tier rows digest per seed, and the end-to-end benchmark checks
them on each of its runs.  This checks seed 0 in the unit suite for all
three ``srv_*`` experiments: ``srv_batching_policy`` is the only one
that runs the ``timeout`` and ``size`` policies, so a change to batch
formation, pricing or statistics that moves one byte of any of them
fails here.  The file is read, never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.registry import run_all
from repro.runtime import RunSpec, Session

DIGESTS = Path(__file__).resolve().parents[2] / (
    "benchmarks/e2e/expected_digests.json"
)


@pytest.mark.parametrize(
    "experiment_id",
    ["srv_tail_latency", "srv_batching_policy", "srv_saturation"],
)
def test_quick_rows_match_the_recorded_seed_0_digest(experiment_id):
    expected = json.loads(DIGESTS.read_text())["analytic"][experiment_id]
    rows = run_all(
        only=[experiment_id], quick=True, session=Session(RunSpec(seed=0)),
    )[0].rows
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode(),
    ).hexdigest()
    assert digest == expected["0"]
