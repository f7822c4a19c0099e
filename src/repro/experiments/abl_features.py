"""Ablation: Table I feature selection (Section V-A's procedure).

Reproduces the paper's feature-selection study: train the predictor with
each of the ten features removed and report the held-out RMSE increase.
Features whose removal "causes a large drop in accuracy" stay — which is
how the paper arrived at the ten of Table I.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import ExperimentResult
from repro.predictor.dataset import PredictorDataset, generate_dataset
from repro.predictor.feature_ablation import ablate_features, importance_ranking
from repro.runtime import experiment


@experiment(
    "abl-features",
    title="Table I feature ablation (drop-one RMSE)",
    cost_hint=4.4,
    quick={"num_samples": 400},
    order=190,
)
def run(
    num_samples: int = 900,
    seed: int = 0,
    dataset: Optional[PredictorDataset] = None,
) -> ExperimentResult:
    """Drop-one-feature RMSE study."""
    if dataset is None:
        dataset = generate_dataset(num_samples=num_samples, random_state=seed)
    ablation = ablate_features(dataset=dataset, random_state=seed)
    ranking = importance_ranking(ablation)
    result = ExperimentResult(
        experiment_id="abl-features",
        title="Table I feature ablation (drop-one RMSE)",
        notes=(
            "The paper kept exactly the features whose removal degraded "
            "accuracy; matrix-dimension features should rank high, the "
            "layer index low."
        ),
    )
    baseline = ablation["<all features>"]
    result.rows.append({
        "feature removed": "(none)",
        "rmse": baseline,
        "rmse increase": 0.0,
    })
    for name, delta in ranking.items():
        result.rows.append({
            "feature removed": name,
            "rmse": ablation[name],
            "rmse increase": delta,
        })
    return result
