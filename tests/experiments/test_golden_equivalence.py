"""Golden-hash equivalence: refactors must not move a single byte.

``golden_quick_hashes.json`` records, for each experiment, the sha256 of
its quick-mode result rows as produced by the pre-``repro.runtime``
codebase.  Any change that perturbs an RNG derivation, a cache key, or
an iteration order shows up here as a hash mismatch — before it shows up
as a silently different EXPERIMENTS.md.

The always-on subset covers the cheap experiments; set
``REPRO_GOLDEN_FULL=1`` to check every recorded id.  CI runs the full
set as its own step, right after the tier-1 suite.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_quick_hashes.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

FAST_IDS = (
    "fig05", "fig06", "fig07", "abl-motivation", "abl-endurance",
    "abl-weight-staleness", "abl-model-family",
)
RUN_ALL = bool(os.environ.get("REPRO_GOLDEN_FULL"))
IDS = tuple(GOLDEN) if RUN_ALL else FAST_IDS


def rows_hash(result) -> str:
    return hashlib.sha256(
        json.dumps(result.rows, sort_keys=True, default=str).encode(),
    ).hexdigest()


def test_golden_file_covers_known_experiments():
    from repro.experiments.registry import specs

    unknown = set(GOLDEN) - set(specs())
    assert not unknown, f"golden ids not in the registry: {sorted(unknown)}"
    assert set(FAST_IDS) <= set(GOLDEN)


@pytest.mark.parametrize("experiment_id", IDS)
def test_quick_rows_match_golden_hash(experiment_id):
    from repro.experiments.registry import run_all

    result = run_all(only=[experiment_id], quick=True)[0]
    assert rows_hash(result) == GOLDEN[experiment_id], (
        f"{experiment_id}: quick-mode rows diverged from the recorded "
        f"golden hash — a refactor changed the numbers"
    )
