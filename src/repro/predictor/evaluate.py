"""Predictor evaluation harness: RMSE comparisons and generalisation.

Drives the Fig. 9 sweeps (model families, MLP depth, hidden width) and the
Section VII-G generalisation study (leave-one-dataset-out prediction
accuracy, paper: 93.4%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import PredictorError
from repro.predictor.dataset import PredictorDataset, generate_dataset
from repro.predictor.features import stage_samples
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import (
    BayesianRidgeRegressor,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
    LinearRegressor,
    Regressor,
    RidgeRegressor,
)
from repro.predictor.predictor import PerKindRegressor
from repro.runtime import current_session
from repro.stages.latency import StageTimingModel
from repro.stages.workload import workload_from_dataset

#: Seed of the generalisation study's training samples and held-out graph.
GENERALISATION_SEED = 0


def default_model_zoo() -> Dict[str, Callable[[], Regressor]]:
    """Factories for the Fig. 9(a) comparison set.

    Every family is wrapped in a :class:`PerKindRegressor` so the
    comparison is apples-to-apples with GoPIM's per-stage-kind MLP.
    """
    return {
        "MLP": lambda: PerKindRegressor(
            lambda: MLPRegressor(hidden_layers=(256,), epochs=600,
                         learning_rate=3e-3, weight_decay=1e-4)
        ),
        "XGB": lambda: PerKindRegressor(GradientBoostingRegressor),
        "SVR": lambda: PerKindRegressor(KernelRidgeRegressor),
        "DT": lambda: PerKindRegressor(DecisionTreeRegressor),
        "LR": lambda: PerKindRegressor(LinearRegressor),
        "BR": lambda: PerKindRegressor(BayesianRidgeRegressor),
        "Ridge": lambda: PerKindRegressor(RidgeRegressor),
        "KNN": lambda: PerKindRegressor(KNNRegressor),
    }


def compare_models(
    dataset: Optional[PredictorDataset] = None,
    random_state: int = 0,
) -> Dict[str, float]:
    """Fig. 9(a): held-out RMSE per model family of
    :func:`default_model_zoo` (smaller is better)."""
    if dataset is None:
        dataset = generate_dataset(random_state=random_state)
    train, test = dataset.split(random_state=random_state)
    results: Dict[str, float] = {}
    for name, factory in default_model_zoo().items():
        model = factory().fit(train.features, train.targets)
        results[name] = model.rmse(test.features, test.targets)
    return results


def sweep_mlp_depth(
    depths: Sequence[int] = (2, 3, 4, 5, 6),
    dataset: Optional[PredictorDataset] = None,
    random_state: int = 0,
) -> Dict[int, float]:
    """Fig. 9(b): RMSE vs MLP layer count (paper convention: >= 2).

    A "depth d" MLP has ``d - 2`` hidden layers of 256 neurons between the
    input and output layers; depth 2 is a linear map.
    """
    if any(d < 2 for d in depths):
        raise PredictorError("MLP depth must be >= 2")
    if dataset is None:
        dataset = generate_dataset(random_state=random_state)
    train, test = dataset.split(random_state=random_state)
    results: Dict[int, float] = {}
    for depth in depths:
        hidden = tuple([256] * (depth - 2))
        if not hidden:
            model: Regressor = PerKindRegressor(LinearRegressor)
        else:
            model = PerKindRegressor(
                lambda: MLPRegressor(hidden_layers=hidden, epochs=400,
                                    learning_rate=3e-3, weight_decay=1e-4)
            )
        model.fit(train.features, train.targets)
        results[depth] = model.rmse(test.features, test.targets)
    return results


def sweep_mlp_width(
    widths: Sequence[int] = (32, 64, 128, 256, 512),
    dataset: Optional[PredictorDataset] = None,
    random_state: int = 0,
) -> Dict[int, float]:
    """Fig. 9(c): RMSE vs hidden-layer width for the three-layer MLP."""
    if dataset is None:
        dataset = generate_dataset(random_state=random_state)
    train, test = dataset.split(random_state=random_state)
    results: Dict[int, float] = {}
    for width in widths:
        model = PerKindRegressor(
            lambda: MLPRegressor(hidden_layers=(width,), epochs=400,
                                learning_rate=3e-3, weight_decay=1e-4)
        )
        model.fit(train.features, train.targets)
        results[width] = model.rmse(test.features, test.targets)
    return results


@dataclass(frozen=True)
class GeneralisationResult:
    """Leave-one-dataset-out accuracy for one held-out dataset."""

    dataset: str
    accuracy: float
    per_stage_accuracy: Dict[str, float]


def prediction_accuracy(true_ns: float, predicted_ns: float) -> float:
    """The paper's accuracy metric: ``1 - |pred - true| / true``, floored at 0."""
    if true_ns <= 0:
        raise PredictorError("true time must be positive")
    return max(0.0, 1.0 - abs(predicted_ns - true_ns) / true_ns)


def leave_one_dataset_out(
    held_out: str,
    train_samples: int = 1600,
) -> GeneralisationResult:
    """Section VII-G: train on random workloads, predict an unseen dataset
    (both drawn with :data:`GENERALISATION_SEED`)."""
    from repro.predictor.predictor import TimePredictor

    dataset = generate_dataset(
        num_samples=train_samples, random_state=GENERALISATION_SEED,
    )
    predictor = TimePredictor().fit(dataset)
    workload = workload_from_dataset(
        held_out, random_state=GENERALISATION_SEED,
    )
    timing = StageTimingModel(workload, current_session().config)
    _, targets, names = stage_samples(timing)
    predicted = predictor.predict_stage_times(workload)
    per_stage: Dict[str, float] = {}
    for name, log_true in zip(names, targets):
        true_ns = float(10.0 ** log_true)
        per_stage[name] = prediction_accuracy(true_ns, predicted[name])
    mean_acc = float(np.mean(list(per_stage.values())))
    return GeneralisationResult(
        dataset=held_out, accuracy=mean_acc, per_stage_accuracy=per_stage,
    )
