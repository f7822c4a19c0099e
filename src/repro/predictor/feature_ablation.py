"""Table I feature ablation (Section V-A's selection procedure).

The paper chose its ten features by "sequentially eliminating one feature
at a time and monitoring significant decrease in accuracy".  This module
reproduces that procedure: train the predictor with each feature column
zeroed (equivalently, carrying no information) and report the held-out
RMSE increase attributable to the feature.  Dimension features should
matter a lot; the layer index least.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import PredictorError
from repro.predictor.dataset import PredictorDataset, generate_dataset
from repro.predictor.features import FEATURE_NAMES, NUM_FEATURES
from repro.predictor.mlp import MLPRegressor
from repro.predictor.predictor import PerKindRegressor
from repro.predictor.regressors import Regressor


def _default_factory() -> Regressor:
    return PerKindRegressor(
        lambda: MLPRegressor(hidden_layers=(256,), epochs=300,
                             learning_rate=3e-3, weight_decay=1e-4),
    )


def _mask_feature(features: np.ndarray, index: int) -> np.ndarray:
    masked = features.copy()
    masked[:, index] = 0.0
    return masked


def ablate_features(
    dataset: Optional[PredictorDataset] = None,
    random_state: int = 0,
) -> Dict[str, float]:
    """RMSE with each Table I feature removed, plus the full baseline,
    each from a fresh per-kind MLP (:func:`_default_factory`).

    Returns ``{"<all features>": rmse, feature_name: rmse_without_it, ...}``.
    Feature columns are zeroed in both splits; the kind-dispatch column is
    never removed (it routes, it does not inform).
    """
    if dataset is None:
        dataset = generate_dataset(random_state=random_state)
    if dataset.features.shape[1] != NUM_FEATURES + 1:
        raise PredictorError("dataset does not carry kind-tagged features")
    train, test = dataset.split(random_state=random_state)

    results: Dict[str, float] = {}
    baseline = _default_factory().fit(train.features, train.targets)
    results["<all features>"] = baseline.rmse(test.features, test.targets)
    for index, name in enumerate(FEATURE_NAMES):
        model = _default_factory().fit(
            _mask_feature(train.features, index), train.targets,
        )
        results[name] = model.rmse(
            _mask_feature(test.features, index), test.targets,
        )
    return results


def importance_ranking(ablation: Dict[str, float]) -> Dict[str, float]:
    """RMSE increase per feature, descending (the paper's keep criterion)."""
    if "<all features>" not in ablation:
        raise PredictorError("ablation dict lacks the full-feature baseline")
    baseline = ablation["<all features>"]
    deltas = {
        name: rmse - baseline
        for name, rmse in ablation.items()
        if name != "<all features>"
    }
    return dict(sorted(deltas.items(), key=lambda kv: -kv[1]))
