"""Fig. 4: idle-time percentage of crossbars per forward-pass stage.

The paper profiles SlimGNN's pipeline over six datasets and finds the
weight-mapped stages (XBS1/3/5) idle ~98% of the time.  We run the
SlimGNN-like accelerator and report the idle fraction of each forward
stage's crossbar pool.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.catalog import slimgnn_like
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment

FIG04_DATASETS = ("ddi", "collab", "ppa", "proteins", "arxiv", "products")


@experiment(
    "fig04",
    title="Idle time percentage of crossbars per stage",
    datasets=FIG04_DATASETS,
    cost_hint=0.3,
    backends=("analytic", "trace"),
    order=10,
)
def run(
    datasets: Sequence[str] = FIG04_DATASETS,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Fig. 4's per-stage idle percentages."""
    session = current_session()
    result = ExperimentResult(
        experiment_id="fig04",
        title="Idle time percentage of crossbars per stage (SlimGNN-like pipeline)",
        notes=(
            "XBSi = crossbars serving the i-th forward stage (CO1, AG1, "
            "CO2, AG2, ...). Paper: CO-stage pools idle ~98% on average."
        ),
    )
    for name in datasets:
        workload = session.workload(name, seed=seed)
        report = slimgnn_like().run(workload)
        idle = report.idle_fractions()
        row = {"dataset": name}
        forward_stages = 2 * workload.num_layers
        for i in range(forward_stages):
            row[f"XBS{i + 1} ({report.stage_names[i]})"] = (
                round(100.0 * idle[i], 2)
            )
        result.rows.append(row)
    return result
