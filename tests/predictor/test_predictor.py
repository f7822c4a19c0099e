"""TimePredictor facade + PerKindRegressor dispatch."""

import numpy as np
import pytest

from repro.errors import PredictorError
from repro.hardware.config import DEFAULT_CONFIG
from repro.predictor.dataset import generate_dataset
from repro.predictor.predictor import PerKindRegressor, TimePredictor
from repro.predictor.regressors import LinearRegressor
from repro.stages.latency import StageTimingModel
from repro.stages.workload import workload_from_dataset


@pytest.fixture(scope="module")
def fitted_predictor():
    ds = generate_dataset(num_samples=400, random_state=1)
    return TimePredictor(PerKindRegressor(LinearRegressor)).fit(ds)


def test_per_kind_dispatch():
    # Two kinds with opposite linear laws; one head each must learn both.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    kinds = np.repeat([0.0, 1.0], 100)
    y = np.where(kinds == 0, 3 * x[:, 0], -3 * x[:, 0])
    features = np.column_stack([x, kinds])
    model = PerKindRegressor(LinearRegressor).fit(features, y)
    assert model.rmse(features, y) < 0.1


def test_per_kind_unknown_code_raises():
    x = np.column_stack([np.random.default_rng(0).normal(size=(20, 1)),
                         np.zeros(20)])
    model = PerKindRegressor(LinearRegressor).fit(x, x[:, 0])
    bad = np.array([[0.0, 7.0]])
    with pytest.raises(PredictorError):
        model.predict(bad)


def test_per_kind_rejects_wrong_width():
    rng = np.random.default_rng(0)
    x = np.column_stack([rng.normal(size=(40, 10)), np.repeat([0.0, 1.0], 20)])
    model = PerKindRegressor(LinearRegressor).fit(x, x[:, 0])
    with pytest.raises(PredictorError, match="10 features"):
        model.predict([[0.0, 1.0]])


def test_per_kind_validation():
    model = PerKindRegressor(LinearRegressor)
    with pytest.raises(PredictorError):
        model.predict(np.zeros((1, 3)))
    with pytest.raises(PredictorError):
        model.fit(np.zeros((5, 1)), np.zeros(5))  # needs >= 2 columns
    with pytest.raises(PredictorError):
        model.fit(np.zeros((5, 3)), np.zeros(4))


def test_predict_before_fit():
    with pytest.raises(PredictorError):
        TimePredictor().predict_stage_times(
            workload_from_dataset("cora", random_state=0),
        )


def test_predictions_positive_and_reasonable(fitted_predictor):
    workload = workload_from_dataset("cora", random_state=0)
    times = fitted_predictor.predict_stage_times(workload)
    truth = StageTimingModel(workload, DEFAULT_CONFIG).no_replica_times()
    assert set(times) == set(truth)
    for name in truth:
        assert times[name] > 0
        # Within 10x of the truth even with a linear head.
        assert 0.1 < times[name] / truth[name] < 10.0


def test_is_fitted_flag():
    predictor = TimePredictor(PerKindRegressor(LinearRegressor))
    assert not predictor.is_fitted
    ds = generate_dataset(num_samples=60, random_state=0)
    predictor.fit(ds)
    assert predictor.is_fitted
