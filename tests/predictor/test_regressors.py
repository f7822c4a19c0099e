"""From-scratch regressors: each family learns simple functions."""

import numpy as np
import pytest

from repro.errors import PredictorError
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import (
    BayesianRidgeRegressor,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
    LinearRegressor,
    RidgeRegressor,
    root_mean_squared_error,
)

ALL_MODELS = [
    LinearRegressor,
    RidgeRegressor,
    BayesianRidgeRegressor,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
]


def linear_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = 2.0 * x[:, 0] - 1.5 * x[:, 1] + 0.5 + rng.normal(0, 0.01, n)
    return x, y


def test_rmse_function():
    assert root_mean_squared_error([1, 2], [1, 2]) == 0.0
    assert root_mean_squared_error([0, 0], [3, 4]) == pytest.approx(
        np.sqrt(12.5),
    )
    with pytest.raises(PredictorError):
        root_mean_squared_error([1], [1, 2])
    with pytest.raises(PredictorError):
        root_mean_squared_error([], [])


@pytest.mark.parametrize("cls", [LinearRegressor, RidgeRegressor,
                                 BayesianRidgeRegressor])
def test_linear_family_recovers_linear_fn(cls):
    x, y = linear_data()
    model = cls().fit(x, y)
    assert model.rmse(x, y) < 0.1


@pytest.mark.parametrize("cls", ALL_MODELS)
def test_all_models_fit_and_predict(cls):
    x, y = linear_data(n=120)
    model = cls().fit(x, y)
    pred = model.predict(x)
    assert pred.shape == (120,)
    # Everything should beat the constant predictor on linear data.
    constant_rmse = root_mean_squared_error(y, np.full_like(y, y.mean()))
    assert model.rmse(x, y) < constant_rmse


@pytest.mark.parametrize("cls", ALL_MODELS)
def test_predict_before_fit_raises(cls):
    with pytest.raises(PredictorError):
        cls().predict(np.zeros((1, 3)))


@pytest.mark.parametrize("cls", [*ALL_MODELS, MLPRegressor])
def test_predict_rejects_wrong_width(cls):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 10))
    model = cls().fit(x, x[:, 0])
    # Width 1 and a length-1 row would broadcast against the 10 fitted
    # features; width 9 would fail inside numpy, not as a PredictorError.
    for bad in (np.zeros((5, 1)), np.zeros((5, 9)), np.zeros(1)):
        with pytest.raises(PredictorError, match="10 features"):
            model.predict(bad)
    assert model.predict(x[:3]).shape == (3,)


def test_tree_fits_step_function():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(300, 1))
    y = np.where(x[:, 0] > 0.2, 5.0, -5.0)
    tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
    assert tree.rmse(x, y) < 1.0


def test_boosting_fits_nonlinear():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, size=(300, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    gbt = GradientBoostingRegressor(n_estimators=60).fit(x, y)
    linear = LinearRegressor().fit(x, y)
    assert gbt.rmse(x, y) < 0.5 * linear.rmse(x, y)


def test_kernel_ridge_fits_nonlinear():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(200, 1))
    y = np.sin(2 * x[:, 0])
    model = KernelRidgeRegressor(alpha=0.01, gamma=1.0).fit(x, y)
    assert model.rmse(x, y) < 0.2


def test_knn_exact_on_training_points_k1():
    x, y = linear_data(n=50)
    model = KNNRegressor(k=1).fit(x, y)
    np.testing.assert_allclose(model.predict(x), y, rtol=1e-6)


def test_1d_input_promoted():
    x, y = linear_data(n=50)
    model = LinearRegressor().fit(x, y)
    single = model.predict(x[0])
    assert single.shape == (1,)


def test_hyperparameter_validation():
    with pytest.raises(PredictorError):
        RidgeRegressor(alpha=-1.0)
    with pytest.raises(PredictorError):
        DecisionTreeRegressor(max_depth=0)
    with pytest.raises(PredictorError):
        GradientBoostingRegressor(learning_rate=0.0)
    with pytest.raises(PredictorError):
        KernelRidgeRegressor(alpha=0.0)
    with pytest.raises(PredictorError):
        KNNRegressor(k=0)
    with pytest.raises(PredictorError):
        BayesianRidgeRegressor(max_iter=0)


def test_fit_validation():
    model = LinearRegressor()
    with pytest.raises(PredictorError):
        model.fit(np.zeros((3,)), np.zeros(3))  # 1-D features
    with pytest.raises(PredictorError):
        model.fit(np.zeros((3, 2)), np.zeros(4))  # mismatched
    with pytest.raises(PredictorError):
        model.fit(np.zeros((0, 2)), np.zeros(0))  # empty


def test_constant_feature_column_handled():
    x, y = linear_data(n=80)
    x = np.hstack([x, np.ones((80, 1))])  # zero-variance column
    model = LinearRegressor().fit(x, y)
    assert np.isfinite(model.predict(x)).all()
