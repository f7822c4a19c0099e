"""Adam converges on a quadratic."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.optim import LEARNING_RATE, Adam


def quadratic_grad(params):
    # f(w) = ||w - 3||^2 -> grad = 2 (w - 3).
    return {"w": 2.0 * (params["w"] - 3.0)}


def test_converges_to_minimum():
    optimizer = Adam()
    params = {"w": np.array([2.0, 4.0])}
    for _ in range(1000):
        optimizer.step(params, quadratic_grad(params))
    np.testing.assert_allclose(params["w"], [3.0, 3.0], atol=0.05)


def test_updates_in_place():
    params = {"w": np.zeros(2)}
    ref = params["w"]
    Adam().step(params, {"w": np.ones(2)})
    assert params["w"] is ref
    assert not np.allclose(ref, 0.0)


def test_unknown_gradient_key_raises():
    with pytest.raises(TrainingError):
        Adam().step({"w": np.zeros(2)}, {"v": np.zeros(2)})


def test_adam_bias_correction_first_step():
    # After one step from zero moments, Adam moves by ~lr regardless of
    # gradient scale.
    params = {"w": np.array([0.0])}
    Adam().step(params, {"w": np.array([1e-4])})
    assert abs(params["w"][0] + LEARNING_RATE) < LEARNING_RATE / 10
