"""Table V: model-accuracy impact of ISU across five datasets.

GoPIM-Vanilla trains with full vertex updating; GoPIM with the adaptive
ISU schedule (theta from Section VI-C, minor refresh every 20 epochs).
The paper finds ISU sometimes *improves* accuracy (it de-emphasises noisy
low-degree vertices) and never loses more than ~0.65%.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import ExperimentResult
from repro.gcn.batched import ReplicaSpec, train_replicas
from repro.graphs.datasets import get_spec
from repro.mapping.selective import build_update_plan
from repro.runtime import current_session, experiment

TAB05_DATASETS = ("ddi", "collab", "ppa", "proteins", "arxiv")


@experiment(
    "tab05",
    title="Accuracy impact of ISU (GoPIM-Vanilla vs GoPIM)",
    datasets=TAB05_DATASETS,
    cost_hint=2.5,
    quick={"epochs": 12},
    order=110,
)
def run(
    datasets: Sequence[str] = TAB05_DATASETS,
    epochs: int = 40,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Table V's accuracy comparison."""
    session = current_session()
    result = ExperimentResult(
        experiment_id="tab05",
        title="Accuracy impact of ISU (GoPIM-Vanilla vs GoPIM)",
        notes=(
            "Paper deltas: +4.01 (ddi), -0.65 (collab), +1.07 (ppa), "
            "+1.62 (proteins), -0.2 (arxiv) percentage points."
        ),
    )
    for dataset in datasets:
        spec = get_spec(dataset)
        graph = session.graph(dataset, seed=seed)
        plan = build_update_plan(graph, "isu")
        # Vanilla + ISU share everything but the update plan: one
        # batched group of two replicas per dataset.
        vanilla_run, isu_run = train_replicas(
            [
                ReplicaSpec(
                    graph=graph, task=spec.task, epochs=epochs,
                    random_state=seed,
                ),
                ReplicaSpec(
                    graph=graph, task=spec.task, epochs=epochs,
                    random_state=seed, update_plan=plan,
                ),
            ],
        )
        vanilla_acc = vanilla_run.best_test_metric
        isu_acc = isu_run.best_test_metric
        result.rows.append({
            "dataset": dataset,
            "task": spec.task,
            "theta": plan.theta,
            "GoPIM-Vanilla acc %": round(100 * vanilla_acc, 2),
            "GoPIM acc %": round(100 * isu_acc, 2),
            "impact (points)": round(100 * (isu_acc - vanilla_acc), 2),
        })
    return result
