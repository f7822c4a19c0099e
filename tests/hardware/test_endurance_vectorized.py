"""Bincount wear-levelling vs the per-crossbar loop reference.

``wear_levelled_rates`` computes each crossbar's mean write rate with two
``np.bincount`` passes; the reference in ``tests/oracles/endurance.py``
loops over crossbars with ``np.mean``.  ``np.mean`` uses pairwise
summation while ``bincount`` sums sequentially, so the two agree to
allclose (observed ~4e-16), not bit for bit — the tolerance here is
deliberately tight to pin that down.
"""

import numpy as np
import pytest

from repro.hardware.config import WRITE_PULSES
from repro.hardware.endurance import (
    ROTATION_PERIOD_EPOCHS,
    estimate_lifetime,
    estimate_lifetime_with_leveling,
    wear_levelled_rates,
)
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan
from tests.oracles.endurance import wear_levelled_rates_reference


@pytest.mark.parametrize("strategy,theta,rows", [
    ("isu", 0.25, 16),
    ("isu", 0.5, 64),
    ("full", None, 16),
    ("osu", 0.3, 32),
])
def test_matches_reference(strategy, theta, rows):
    graph = dc_sbm_graph(300, 3, 8.0, random_state=5, feature_dim=8)
    plan = build_update_plan(
        graph, strategy, theta=theta, rows_per_crossbar=rows,
        minor_period=10,
    )
    np.testing.assert_allclose(
        wear_levelled_rates(plan), wear_levelled_rates_reference(plan),
        rtol=1e-12, atol=1e-15,
    )


def test_levelling_spreads_hub_wear(small_graph):
    plan = build_update_plan(
        small_graph, "isu", theta=0.2, minor_period=10,
    )
    levelled = wear_levelled_rates(plan)
    static = estimate_lifetime(plan, "isu")
    report = estimate_lifetime_with_leveling(plan, "isu")
    # Levelling caps the worst row at (crossbar mean + rotation tax),
    # which for skewed plans beats the unlevelled hub rate of 1.0.
    tax = 1.0 / ROTATION_PERIOD_EPOCHS
    assert levelled.max() < 1.0 + tax + 1e-12
    assert report.writes_per_epoch_worst_row <= (
        static.writes_per_epoch_worst_row + WRITE_PULSES * tax + 1e-12
    )
