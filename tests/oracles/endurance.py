"""Oracle for the wear-levelling rates: one ``np.mean`` per crossbar.

:func:`repro.hardware.endurance.wear_levelled_rates` computes each
crossbar's mean write rate with two ``np.bincount`` passes; the loop
here visits crossbars one by one.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.endurance import (
    ROTATION_PERIOD_EPOCHS,
    rows_written_per_epoch,
)
from repro.mapping.selective import UpdatePlan


def wear_levelled_rates_reference(plan: UpdatePlan) -> np.ndarray:
    """Per-crossbar-mean loop form of :func:`wear_levelled_rates`.

    ``np.mean`` uses pairwise summation while ``bincount`` sums
    sequentially, so agreement is allclose-level rather than bit-level.
    """
    rates = rows_written_per_epoch(plan)
    mapping = plan.mapping
    levelled = np.empty_like(rates)
    for crossbar in range(mapping.num_crossbars):
        members = mapping.vertices_on(crossbar)
        levelled[members] = rates[members].mean()
    return levelled + 1.0 / ROTATION_PERIOD_EPOCHS
