"""Fig. 14: impact of individual techniques (Serial -> +PP -> +ISU -> GoPIM).

* ``Serial`` — layer-wise sequential baseline;
* ``+PP`` — adds intra+inter-batch pipelining (no replicas, no ISU);
* ``+ISU`` — adds interleaved selective updating on top of +PP;
* ``GoPIM`` — adds the ML-based replica allocation.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.catalog import gopim, plus_isu, plus_pp, serial
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment

FIG14_DATASETS = ("ddi", "collab", "ppa", "proteins", "arxiv")


@experiment(
    "fig14",
    title="Ablation: +PP, +ISU, and ML-based allocation",
    datasets=FIG14_DATASETS,
    cost_hint=0.042,
    backends=("analytic", "trace"),
    order=70,
)
def run(
    datasets: Sequence[str] = FIG14_DATASETS,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Fig. 14's ablation of GoPIM's techniques."""
    session = current_session()
    predictor = session.predictor(seed=seed)
    result = ExperimentResult(
        experiment_id="fig14",
        title="Ablation: +PP, +ISU, and ML-based allocation",
        notes=(
            "Paper: +PP 2.6x on ddi; full GoPIM 3472x on ddi; energy "
            "reductions up to 62% (+PP), 75% (+ISU), 79% (GoPIM)."
        ),
    )
    for dataset in datasets:
        workload = session.workload(dataset, seed=seed)
        systems = (
            serial(), plus_pp(), plus_isu(),
            gopim(time_predictor=predictor),
        )
        reports = {acc.name: acc.run(workload) for acc in systems}
        base = reports["Serial"]
        for name, report in reports.items():
            result.rows.append({
                "dataset": dataset,
                "variant": name,
                "speedup": base.total_time_ns / report.total_time_ns,
                "energy reduction %": round(
                    100.0 * (1.0 - report.energy_pj / base.energy_pj), 1,
                ),
            })
    return result
