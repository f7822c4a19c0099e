"""Fig. 13: end-to-end speedup and energy saving vs all baselines.

Runs Serial, SlimGNN-like, ReGraphX, ReFlip, GoPIM-Vanilla, and GoPIM on
the five headline datasets (plus optionally Cora for the Section VII-F
sparse-graph study) and normalises to Serial.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.accelerators.base import AcceleratorReport
from repro.accelerators.catalog import (
    gopim,
    gopim_vanilla,
    reflip,
    regraphx,
    serial,
    slimgnn_like,
)
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment

FIG13_DATASETS = ("ddi", "collab", "ppa", "proteins", "arxiv")


def run_systems(
    dataset: str,
    seed: int = 0,
) -> Dict[str, AcceleratorReport]:
    """All six systems' reports for one dataset."""
    session = current_session()
    workload = session.workload(dataset, seed=seed)
    predictor = session.predictor(seed=seed)
    systems = (
        serial(),
        slimgnn_like(),
        regraphx(),
        reflip(),
        gopim_vanilla(time_predictor=predictor),
        gopim(time_predictor=predictor),
    )
    return {acc.name: acc.run(workload) for acc in systems}


@experiment(
    "fig13",
    title="Overall speedup and energy saving, normalised to Serial",
    datasets=FIG13_DATASETS,
    cost_hint=2.6,
    backends=("analytic", "trace"),
    order=60,
)
def run(
    datasets: Sequence[str] = FIG13_DATASETS,
    seed: int = 0,
    include_cora: bool = False,
) -> ExperimentResult:
    """Reproduce Fig. 13 (a) speedups and (b) energy savings."""
    result = ExperimentResult(
        experiment_id="fig13",
        title="Overall speedup and energy saving, normalised to Serial",
        notes=(
            "Paper averages: GoPIM 727.6x vs Serial, 2.1x vs SlimGNN-like, "
            "2.4x vs ReGraphX, 45.1x vs ReFlip, 1.5x vs GoPIM-Vanilla; "
            "energy savings 4.0x / 2.6x / 2.5x / 1.4x / 3.0x vs Serial."
        ),
    )
    names = list(datasets) + (["cora"] if include_cora else [])
    for dataset in names:
        reports = run_systems(dataset, seed=seed)
        base = reports["Serial"]
        for name, report in reports.items():
            result.rows.append({
                "dataset": dataset,
                "system": name,
                "speedup": base.total_time_ns / report.total_time_ns,
                "energy saving": base.energy_pj / report.energy_pj,
                "time (ms)": report.total_time_ns / 1e6,
                "energy (mJ)": report.energy_pj / 1e9,
            })
    return result
