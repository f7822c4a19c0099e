"""ReRAM endurance / array-lifetime model.

Section IV-A justifies the SRAM Weight Manager by endurance: ReRAM cells
survive ~10^8 writes versus SRAM's ~10^16.  The same arithmetic has a
consequence the paper leaves implicit: **vertex updating wears out the
feature-mapped crossbars**, and ISU — by cutting write traffic and
balancing it across crossbars — extends the array's useful life.

The model is deliberately simple: a crossbar row dies after
:data:`RERAM_ENDURANCE_WRITES` program pulses, and each row write costs
:data:`~repro.hardware.config.WRITE_PULSES` of them; the array's
lifetime is set by the *most-written* row (wear is not levelled across
rows because a vertex's features live at a fixed wordline).  Lifetime
is reported in training epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.hardware.config import WRITE_PULSES
from repro.mapping.selective import UpdatePlan

RERAM_ENDURANCE_WRITES = 10 ** 8

#: Epochs between two wordline rotations of the wear-levelling mapper.
ROTATION_PERIOD_EPOCHS = 100


@dataclass(frozen=True)
class LifetimeReport:
    """Array-lifetime estimate under one update scheme.

    The *worst* row (a hub vertex, refreshed every epoch) wears at the
    same rate under every scheme — selective updating cannot help the
    rows it keeps updating.  What ISU changes is the array-wide picture:
    the median row's write rate drops by up to the minor period, and the
    total wear (== write energy) drops proportionally.
    """

    scheme: str
    writes_per_epoch_worst_row: float
    writes_per_epoch_median_row: float
    writes_per_epoch_mean: float
    epochs_to_wearout_worst: float
    epochs_to_wearout_median: float


def rows_written_per_epoch(plan: UpdatePlan) -> np.ndarray:
    """Expected per-vertex row writes per epoch under a plan's schedule.

    Important vertices are written every epoch; the rest once per minor
    period.
    """
    n = plan.mapping.num_vertices
    rates = np.full(n, 1.0 / plan.minor_period)
    rates[plan.important] = 1.0
    return rates


def _report(scheme: str, rates: np.ndarray) -> LifetimeReport:
    """Wear of per-row write ``rates`` at :data:`WRITE_PULSES` per write."""
    worst = float(rates.max()) * WRITE_PULSES
    median = float(np.median(rates)) * WRITE_PULSES
    mean = float(rates.mean()) * WRITE_PULSES
    return LifetimeReport(
        scheme=scheme,
        writes_per_epoch_worst_row=worst,
        writes_per_epoch_median_row=median,
        writes_per_epoch_mean=mean,
        epochs_to_wearout_worst=(
            RERAM_ENDURANCE_WRITES / worst if worst > 0 else float("inf")
        ),
        epochs_to_wearout_median=(
            RERAM_ENDURANCE_WRITES / median if median > 0 else float("inf")
        ),
    )


def estimate_lifetime(plan: UpdatePlan, scheme_name: str) -> LifetimeReport:
    """Epochs until the most-written wordline wears out.

    Each AG stage maps its vertex rows onto crossbars of its own (GoPIM's
    allocation), so no two layers wear the same physical row.
    """
    return _report(scheme_name, rows_written_per_epoch(plan))


def compare_schemes(plans: Dict[str, UpdatePlan]) -> Dict[str, LifetimeReport]:
    """Lifetime reports for several named update schemes."""
    return {name: estimate_lifetime(plan, name) for name, plan in plans.items()}


def wear_levelled_rates(plan: UpdatePlan) -> np.ndarray:
    """Per-row write rates under wordline rotation (wear levelling).

    A simple future-work extension: every :data:`ROTATION_PERIOD_EPOCHS`
    the mapper rotates each crossbar's vertex-to-wordline assignment by
    one slot, so over many rotations every physical row absorbs the
    *average* write rate of the vertices sharing its crossbar.  The
    rotation itself costs one extra full write round per period, charged
    here as an added ``1 / ROTATION_PERIOD_EPOCHS`` to every row.

    Returns the asymptotic per-vertex-slot write rates.
    """
    rates = rows_written_per_epoch(plan)
    mapping = plan.mapping
    # Segment means via bincount: sum and count each crossbar's rates in
    # two O(N) passes, then gather — replaces the per-crossbar Python
    # loop in tests/oracles/endurance.py (allclose-level equivalence:
    # tests/hardware/test_endurance_vectorized.py).
    groups = mapping.crossbar_of
    counts = np.bincount(groups, minlength=mapping.num_crossbars)
    sums = np.bincount(groups, weights=rates, minlength=mapping.num_crossbars)
    means = sums / np.maximum(counts, 1)  # empty crossbars are never read
    return means[groups] + 1.0 / ROTATION_PERIOD_EPOCHS


def estimate_lifetime_with_leveling(
    plan: UpdatePlan,
    scheme_name: str,
) -> LifetimeReport:
    """Lifetime under wordline rotation (compare with the static mapping).

    Wear levelling is what finally extends the *worst* row's life: the hub
    rows' per-epoch writes get amortised across all wordlines of their
    crossbar, at the price of the periodic rotation writes.
    """
    return _report(f"{scheme_name}+leveling", wear_levelled_rates(plan))
