"""TimePredictor facade + PerKindRegressor dispatch."""

import numpy as np
import pytest

from repro.errors import PredictorError
from repro.graphs.datasets import DATASET_SPECS
from repro.hardware.config import DEFAULT_CONFIG
from repro.predictor.dataset import generate_dataset
from repro.predictor.features import stage_features_with_kind
from repro.predictor.predictor import PerKindRegressor, TimePredictor
from repro.predictor.regressors import LinearRegressor
from repro.runtime import Session
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
    timing = StageTimingModel(workload, DEFAULT_CONFIG)
    truth = {s.name: timing.mean_stage_time_ns(s, 1) for s in timing.stages}
    assert set(times) == set(truth)
    for name in truth:
        assert times[name] > 0
        # Within 10x of the truth even with a linear head.
        assert 0.1 < times[name] / truth[name] < 10.0


def test_is_fitted_flag():
    # Unfitted, the predictor refuses to predict; fitted, it predicts.
    predictor = TimePredictor(PerKindRegressor(LinearRegressor))
    workload = workload_from_dataset("cora", random_state=0)
    with pytest.raises(PredictorError):
        predictor.predict_stage_times(workload)
    ds = generate_dataset(num_samples=60, random_state=0)
    assert predictor.fit(ds) is predictor
    assert predictor.predict_stage_times(workload)


def _one_row_predictions(predictor, workload):
    """The memo-free form: one model call per stage row."""
    times = {}
    for stage in workload.stage_chain():
        features = stage_features_with_kind(workload, stage)
        log_time = float(predictor.model.predict(features[None, :])[0])
        times[stage.name] = float(10.0 ** log_time)
    return times


@pytest.mark.parametrize("micro_batch", [32, 64])
def test_memoised_predictions_equal_uncached_ones(micro_batch):
    session = Session()
    predictor = session.predictor()
    for name in DATASET_SPECS:
        workload = session.workload(name, micro_batch=micro_batch)
        first = predictor.predict_stage_times(workload)
        assert first == _one_row_predictions(predictor, workload)
        again = predictor.predict_stage_times(workload)
        assert again == first and again is not first


def test_prediction_memo_keys_on_the_features(monkeypatch):
    predictor = TimePredictor(PerKindRegressor(LinearRegressor)).fit(
        generate_dataset(num_samples=400, random_state=1),
    )
    calls = []
    predict = predictor.model.predict
    monkeypatch.setattr(
        predictor.model, "predict",
        lambda features: calls.append(1) or predict(features),
    )
    small = workload_from_dataset("cora", micro_batch=32)
    predictor.predict_stage_times(small)
    misses = len(calls)
    assert misses == small.num_stages
    predictor.predict_stage_times(small)
    assert len(calls) == misses
    # Differing only in micro-batch: another feature row, another entry.
    large = workload_from_dataset("cora", graph=small.graph, micro_batch=64)
    predictor.predict_stage_times(large)
    assert len(calls) == 2 * misses


def test_pickles_drop_the_prediction_memo(fitted_predictor):
    import pickle

    workload = workload_from_dataset("cora")
    expected = fitted_predictor.predict_stage_times(workload)
    assert fitted_predictor.__getstate__()["_predictions"] == {}
    clone = pickle.loads(pickle.dumps(fitted_predictor))
    assert clone.predict_stage_times(workload) == expected
