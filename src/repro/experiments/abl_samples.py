"""Ablation: predictor sample efficiency (Section V-A's stopping rule).

The paper "incrementally increases the number of data samples until
satisfactory prediction accuracy" and stops at 2,200.  This sweep
regenerates that curve: held-out RMSE and unseen-dataset prediction
accuracy as functions of the training-set size, showing where the curve
flattens.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.predictor.dataset import generate_dataset
from repro.predictor.evaluate import prediction_accuracy
from repro.predictor.features import stage_samples
from repro.predictor.predictor import TimePredictor
from repro.runtime import current_session, experiment
from repro.stages.latency import StageTimingModel
from repro.stages.workload import workload_from_dataset

SAMPLE_GRID = (100, 200, 400, 800, 1600)


@experiment(
    "abl-samples",
    title="Predictor sample efficiency",
    cost_hint=1.2,
    quick={"sample_counts": (100, 400)},
    order=220,
)
def run(
    sample_counts: Sequence[int] = SAMPLE_GRID,
    held_out: str = "cora",
    seed: int = 0,
) -> ExperimentResult:
    """RMSE and unseen-dataset accuracy vs training-set size."""
    result = ExperimentResult(
        experiment_id="abl-samples",
        title="Predictor sample efficiency (the paper stops at 2,200)",
        notes=(
            "Both curves should flatten well before the largest size — "
            "the paper's justification for a modest training set."
        ),
    )
    # One big pool, sliced, so the curve is apples-to-apples.
    pool = generate_dataset(
        num_samples=max(sample_counts) + 400, random_state=seed,
    )
    train_all, test = pool.split(train_fraction=0.8, random_state=seed)
    workload = workload_from_dataset(held_out, random_state=seed)
    _, log_truth, names = stage_samples(
        StageTimingModel(workload, current_session().config),
    )
    truth = {n: float(10.0 ** t) for n, t in zip(names, log_truth)}

    for count in sample_counts:
        subset = type(pool)(
            features=train_all.features[:count],
            targets=train_all.targets[:count],
            stage_names=train_all.stage_names[:count],
        )
        predictor = TimePredictor().fit(subset)
        rmse = predictor.model.rmse(test.features, test.targets)
        predicted = predictor.predict_stage_times(workload)
        accuracy = float(np.mean([
            prediction_accuracy(truth[n], predicted[n]) for n in names
        ]))
        result.rows.append({
            "training samples": count,
            "held-out RMSE": rmse,
            f"unseen ({held_out}) accuracy": accuracy,
        })
    return result
