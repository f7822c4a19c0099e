"""Table VI: per-stage replica and crossbar allocation detail on ddi.

Shows the Serial mapping (one copy per stage) against GoPIM's greedy
assignment.  At paper scale the ddi rows read
``[59, 364, 60, 616, 61, 487, 61, 484]`` replicas over
``[32, 534, ...]``-crossbar stages; the reproduction reports the same
structure at its scaled-down graph and budget.
"""

from __future__ import annotations

from repro.accelerators.catalog import gopim, serial
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment


@experiment(
    "tab06",
    title="Crossbar allocation detail",
    datasets=("ddi",),
    cost_hint=0.0043,
    backends=("analytic", "trace"),
    order=120,
)
def run(
    dataset: str = "ddi",
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Table VI's allocation detail."""
    session = current_session()
    predictor = session.predictor(seed=seed)
    workload = session.workload(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="tab06",
        title=f"Crossbar allocation detail ({dataset})",
        notes=(
            "Paper (ddi, paper scale): Serial [1x8 stages] over "
            "[32, 534, 32, 534, ...] crossbars; GoPIM replicas "
            "[59, 364, 60, 616, 61, 487, 61, 484]."
        ),
    )
    for acc in (serial(), gopim(time_predictor=predictor)):
        report = acc.run(workload)
        crossbars_per_replica = (
            report.allocation.problem.crossbars_per_replica
        )
        row = {"method": acc.name}
        for name, replicas, per_replica in zip(
            report.stage_names, report.replicas, crossbars_per_replica,
        ):
            row[name] = f"{int(replicas)} x {int(per_replica)}"
        row["total crossbars"] = report.crossbars_reserved
        result.rows.append(row)
    return result
