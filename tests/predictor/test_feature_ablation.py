"""Table I feature ablation (Section V-A)."""

import pytest

from repro.errors import PredictorError
from repro.predictor import feature_ablation
from repro.predictor.dataset import generate_dataset
from repro.predictor.feature_ablation import (
    ablate_features,
    importance_ranking,
)
from repro.predictor.features import FEATURE_NAMES
from repro.predictor.predictor import PerKindRegressor
from repro.predictor.regressors import LinearRegressor


@pytest.fixture(scope="module")
def ablation():
    # A linear head per kind in place of the MLP keeps the fits fast.
    dataset = generate_dataset(num_samples=500, random_state=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            feature_ablation, "_default_factory",
            lambda: PerKindRegressor(LinearRegressor),
        )
        return ablate_features(dataset=dataset, random_state=3)


def test_covers_all_features(ablation):
    assert set(ablation) == set(FEATURE_NAMES) | {"<all features>"}


def test_dimension_features_matter(ablation):
    ranking = importance_ranking(ablation)
    # Removing some dimension feature must hurt noticeably more than the
    # least important feature.
    dims = [ranking[n] for n in FEATURE_NAMES if n not in ("layer",)]
    assert max(dims) > 0.01
    assert max(dims) >= ranking["layer"]


def test_ranking_sorted_descending(ablation):
    deltas = list(importance_ranking(ablation).values())
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_ranking_requires_baseline():
    with pytest.raises(PredictorError):
        importance_ranking({"r_ifm_co": 0.5})


def test_ablation_requires_kind_tagged():
    import numpy as np

    from repro.predictor.dataset import PredictorDataset

    bad = PredictorDataset(
        features=np.zeros((10, 3)), targets=np.zeros(10),
        stage_names=["CO1"] * 10,
    )
    with pytest.raises(PredictorError):
        ablate_features(dataset=bad)
