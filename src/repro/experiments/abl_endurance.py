"""Ablation: ReRAM array lifetime under each vertex-update scheme.

Section IV-A motivates the SRAM Weight Manager with endurance numbers
(SRAM 10^16 writes, ReRAM 10^8).  The same arithmetic applied to the
feature-mapped crossbars shows a side benefit of ISU the paper never
claims: cutting update traffic extends the median wordline's life by up
to the minor-update period, and the mean wear (== write energy) drops
with theta.  The hub rows wear identically under every scheme — selective
updating cannot spare the rows it keeps refreshing.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.hardware.endurance import (
    compare_schemes,
    estimate_lifetime_with_leveling,
)
from repro.mapping.selective import build_update_plan


@experiment(
    "abl-endurance",
    title="ReRAM array lifetime under each update scheme",
    datasets=("ddi", "cora"),
    cost_hint=0.0038,
    order=210,
)
def run(
    datasets: Sequence[str] = ("ddi", "cora"),
    seed: int = 0,
) -> ExperimentResult:
    """Lifetime comparison: full vs OSU vs ISU per dataset."""
    session = current_session()
    result = ExperimentResult(
        experiment_id="abl-endurance",
        title="ReRAM array lifetime under each update scheme",
        notes=(
            "Worst-row lifetime is scheme-independent (hubs refresh every "
            "epoch regardless); ISU multiplies the median row's life by "
            "up to the minor period and cuts mean wear by ~theta."
        ),
    )
    for dataset in datasets:
        graph = session.graph(dataset, seed=seed)
        reports = compare_schemes({
            "full": build_update_plan(graph, "full"),
            "OSU": build_update_plan(graph, "osu"),
            "ISU": build_update_plan(graph, "isu"),
        })
        isu_plan = build_update_plan(graph, "isu")
        levelled = estimate_lifetime_with_leveling(isu_plan, "ISU")
        for report in (*reports.values(), levelled):
            result.rows.append({
                "dataset": dataset,
                "scheme": report.scheme,
                "worst-row epochs": report.epochs_to_wearout_worst,
                "median-row epochs": report.epochs_to_wearout_median,
                "mean writes/epoch": report.writes_per_epoch_mean,
            })
    return result
