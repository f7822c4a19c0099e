"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures via the
experiment harness and asserts the paper's qualitative shape on the
result.  pytest-benchmark times the regeneration itself; the printed
medians are the cost of reproducing each artefact.

Workloads and the fitted predictor are cached at session scope so each
benchmark times the experiment, not the shared setup.
"""

from __future__ import annotations

import pytest

from repro.runtime import current_session


@pytest.fixture(scope="session", autouse=True)
def warm_caches():
    """Pre-build the shared workloads and predictor once per session."""
    session = current_session()
    session.prefetch(
        ("ddi", "collab", "ppa", "proteins", "arxiv", "products", "cora"),
    )
    session.predictor(num_samples=800, seed=0)
