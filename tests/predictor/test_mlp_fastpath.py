"""MLP fast-path fit vs the retained reference loop, plus fit memoisation.

``_fit`` keeps every parameter, gradient and Adam moment in one flat
buffer, writes forward and backward into preallocated buffers, and draws
every epoch's shuffle as one ``(epochs, n)`` permutation matrix up front,
yet applies the same IEEE operations to every element in the same order
as ``mlp_fit_reference`` in ``tests/oracles/predictor.py``.  Weights,
biases and the loss history must therefore match *byte for byte*:
``assert_array_equal`` would let ``-0.0`` pass for ``0.0``, so the fits
are compared as bytes, including on the head shapes and Adam settings
the experiments use and under every OpenBLAS kernel CI selects.

The base ``Regressor.fit`` additionally memoises fitted state through the
content-keyed artifact cache: a second fit of equal configuration on
equal data restores identical state without recomputation.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import abl_samples
from repro.perf import get_cache
from repro.perf.cache import clear_cache
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import RidgeRegressor
from tests.oracles.predictor import mlp_fit_reference

# The Adam settings every experiment's heads use (the constructor
# defaults are 1e-3 and 1e-5).
EXPERIMENT_SETTINGS = {"learning_rate": 3e-3, "weight_decay": 1e-4}


def _training_data(seed=0, n=300, dims=11):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, dims))
    y = 3.0 * x[:, 0] - x[:, 1] ** 2 + rng.normal(0.0, 0.1, n) + 5.0
    return x, y


def _fit_both(x, y, **config):
    """Fit one model with ``_fit`` and an equal one with the oracle."""
    xn = (x - x.mean(axis=0)) / x.std(axis=0)
    fast, ref = MLPRegressor(**config), MLPRegressor(**config)
    fast._fit(xn, y)
    mlp_fit_reference(ref, xn, y)
    return fast, ref


def _fitted_bytes(model):
    return b"".join(p.tobytes() for p in model._weights + model._biases)


def _assert_byte_identical(fast, ref):
    assert len(fast._weights) == len(ref._weights)
    assert _fitted_bytes(fast) == _fitted_bytes(ref)
    assert (
        np.array(fast.loss_history).tobytes()
        == np.array(ref.loss_history).tobytes()
    )
    assert (fast._y_mean, fast._y_std) == (ref._y_mean, ref._y_std)


@pytest.mark.parametrize("hidden,epochs,n,settings", [
    # the paper's three-layer shape
    pytest.param((256,), 30, 300, {}, id="hidden0-30"),
    # two hidden layers
    pytest.param((64, 64), 25, 300, {}, id="hidden1-25"),
    # depth-5 shape from the Fig. 9b sweep
    pytest.param((32, 32, 32), 20, 300, {}, id="hidden2-20"),
    # the paper's head under the experiments' Adam settings
    pytest.param((256,), 30, 300, EXPERIMENT_SETTINGS, id="experiment-settings"),
    # abl-samples: one short batch per epoch (n < batch_size)
    pytest.param((256,), 60, 21, EXPERIMENT_SETTINGS, id="n21-one-short-batch"),
    # abl-features: batches of 64 + 18
    pytest.param((256,), 40, 82, EXPERIMENT_SETTINGS, id="n82-batches-64-18"),
    # fig09's deepest head (the 6-layer MLP)
    pytest.param((256,) * 4, 10, 82, EXPERIMENT_SETTINGS, id="fig09-deepest"),
    # fig09's widest head
    pytest.param((512,), 15, 200, EXPERIMENT_SETTINGS, id="fig09-widest"),
])
def test_fit_bit_identical_to_reference(hidden, epochs, n, settings):
    x, y = _training_data(n=n)
    fast, ref = _fit_both(
        x, y, hidden_layers=hidden, epochs=epochs, random_state=7, **settings,
    )
    _assert_byte_identical(fast, ref)


def test_fit_bit_identical_with_partial_final_batch():
    # n not divisible by batch_size exercises the short-batch epilogue.
    x, y = _training_data(seed=1, n=130)
    fast, ref = _fit_both(x, y, epochs=15, batch_size=64, random_state=2)
    _assert_byte_identical(fast, ref)


def test_experiment_rows_match_the_reference_fit(monkeypatch):
    # End to end through the fitted-regressors cache (the view-backed
    # weights make a pickle round trip) and PerKindRegressor dispatch.
    # The digests of abl-features and abl-samples depend on the BLAS
    # kernel, so this compares against the oracle, not a pinned digest.
    monkeypatch.setenv("REPRO_CACHE_DIR", "")  # memory tier only

    def rows_digest(fit):
        fits = []

        def counted(model, x, y):
            fits.append(None)
            fit(model, x, y)

        monkeypatch.setattr(MLPRegressor, "_fit", counted)
        clear_cache()
        rows = abl_samples.run(sample_counts=(100,)).rows
        assert fits, "every head was a cache hit; nothing was fitted"
        return hashlib.sha256(
            json.dumps(rows, sort_keys=True, default=str).encode(),
        ).hexdigest()

    fast = rows_digest(MLPRegressor._fit)
    assert rows_digest(mlp_fit_reference) == fast


def test_public_fit_predict_unchanged():
    x, y = _training_data(seed=3, n=200)
    model = MLPRegressor(epochs=40, random_state=0).fit(x, y)
    pred = model.predict(x)
    assert pred.shape == (200,)
    # The standardised net must track the target scale reasonably.
    assert model.rmse(x, y) < np.std(y)


def test_fit_memoised_across_equal_instances():
    x, y = _training_data(seed=4, n=150)
    before = get_cache().stats.hits
    a = MLPRegressor(epochs=10, random_state=5).fit(x, y)
    after_first = get_cache().stats.hits
    b = MLPRegressor(epochs=10, random_state=5).fit(x, y)
    assert get_cache().stats.hits > after_first  # second fit was a hit
    for w_a, w_b in zip(a._weights, b._weights):
        np.testing.assert_array_equal(w_a, w_b)
    np.testing.assert_array_equal(b.predict(x), a.predict(x))
    assert a.loss_history == b.loss_history
    # Restored state is an independent copy, not an alias.
    assert a._weights[0] is not b._weights[0]


def test_fit_cache_distinguishes_config_and_data():
    x, y = _training_data(seed=6, n=120)
    base = MLPRegressor(epochs=8, random_state=0).fit(x, y)
    other_seed = MLPRegressor(epochs=8, random_state=1).fit(x, y)
    assert any(
        not np.array_equal(w_a, w_b)
        for w_a, w_b in zip(base._weights, other_seed._weights)
    )
    other_data = MLPRegressor(epochs=8, random_state=0).fit(x, y + 1.0)
    assert other_data._y_mean != base._y_mean


def test_cache_hit_does_not_touch_global_rng():
    x, y = _training_data(seed=8, n=100)
    RidgeRegressor().fit(x, y)  # prime the cache
    np.random.seed(123)
    expected = np.random.default_rng(0).random()  # unrelated stream
    np.random.seed(123)
    RidgeRegressor().fit(x, y)  # hit
    draw_after_hit = float(np.random.random())
    np.random.seed(123)
    assert draw_after_hit == float(np.random.random())
    assert expected == np.random.default_rng(0).random()
