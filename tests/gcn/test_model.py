"""GCN construction, and the serial forward/backward oracle and its
staleness store (``tests/oracles/gnn.py``): semantics and gradient checks.

The stacked model every trainer runs is pinned to these passes bit for
bit in ``test_batched_equivalence.py`` and ``test_inference.py``.
"""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.model import GCN
from tests.oracles.gnn import (
    StaleFeatureStore,
    cross_entropy_loss,
    gcn_backward_reference,
    gcn_forward_reference,
)


def test_forward_shapes(small_graph):
    model = GCN([(16, 8), (8, 4)], random_state=0)
    out, cache = gcn_forward_reference(
        model, small_graph, small_graph.features,
    )
    assert out.shape == (small_graph.num_vertices, 4)
    assert len(cache["inputs"]) == 2


def test_layer_dims_must_chain():
    with pytest.raises(TrainingError):
        GCN([(4, 8), (9, 2)])
    with pytest.raises(TrainingError):
        GCN([])


def test_feature_shape_checked(small_graph):
    model = GCN([(3, 2)])
    with pytest.raises(TrainingError):
        # dim 16 != 3
        gcn_forward_reference(model, small_graph, small_graph.features)


def test_backward_gradcheck(tiny_graph):
    model = GCN([(4, 5), (5, 2)], random_state=1)
    features = tiny_graph.features
    labels = tiny_graph.labels

    def loss_value():
        logits, _ = gcn_forward_reference(model, tiny_graph, features)
        loss, _ = cross_entropy_loss(logits, labels)
        return loss

    logits, cache = gcn_forward_reference(model, tiny_graph, features)
    _, grad_logits = cross_entropy_loss(logits, labels)
    grads = gcn_backward_reference(model, tiny_graph, cache, grad_logits)

    eps = 1e-3
    rng = np.random.default_rng(0)
    for key in grads:
        w = model.params[key]
        for _ in range(6):
            i = rng.integers(0, w.shape[0])
            j = rng.integers(0, w.shape[1])
            orig = w[i, j]
            w[i, j] = orig + eps
            up = loss_value()
            w[i, j] = orig - eps
            down = loss_value()
            w[i, j] = orig
            numeric = (up - down) / (2 * eps)
            assert grads[key][i, j] == pytest.approx(numeric, abs=2e-2)


def test_stale_store_first_refresh_is_full():
    store = StaleFeatureStore(1)
    values = np.arange(12, dtype=np.float32).reshape(4, 3)
    store.refresh(0, values, vertices=np.array([0]))  # forced full
    np.testing.assert_allclose(store.read(0), values)


def test_stale_store_partial_refresh():
    store = StaleFeatureStore(1)
    first = np.zeros((4, 2), dtype=np.float32)
    store.refresh(0, first)
    second = np.ones((4, 2), dtype=np.float32)
    store.refresh(0, second, vertices=np.array([1, 3]))
    resident = store.read(0)
    np.testing.assert_allclose(resident[[1, 3]], 1.0)
    np.testing.assert_allclose(resident[[0, 2]], 0.0)


def test_stale_store_validation():
    store = StaleFeatureStore(2)
    with pytest.raises(TrainingError):
        store.read(0)
    store.refresh(0, np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(TrainingError):
        store.refresh(0, np.zeros((3, 2), dtype=np.float32), np.array([0]))
    with pytest.raises(TrainingError):
        StaleFeatureStore(0)


def test_staleness_changes_forward(small_graph):
    model = GCN([(16, 8)], random_state=0)
    features = small_graph.features
    store = StaleFeatureStore(1)
    # Initial full refresh.
    out_full, _ = gcn_forward_reference(
        model, small_graph, features, store=store, updated=None,
    )
    # Perturb the weights, then refresh nothing: output must be stale.
    model.params["W0"] += 1.0
    out_stale, _ = gcn_forward_reference(
        model, small_graph, features, store=store,
        updated=np.array([], dtype=np.int64),
    )
    np.testing.assert_allclose(out_stale, out_full, rtol=1e-5)
    # Full refresh picks up the new weights.
    out_fresh, _ = gcn_forward_reference(
        model, small_graph, features, store=store, updated=None,
    )
    assert not np.allclose(out_fresh, out_full)


def test_no_gradient_through_stale_rows(tiny_graph):
    model = GCN([(4, 2)], random_state=0)
    store = StaleFeatureStore(1)
    gcn_forward_reference(
        model, tiny_graph, tiny_graph.features, store=store, updated=None,
    )
    updated = np.array([0, 1], dtype=np.int64)
    logits, cache = gcn_forward_reference(
        model, tiny_graph, tiny_graph.features, store=store, updated=updated,
    )
    grads = gcn_backward_reference(
        model, tiny_graph, cache, np.ones_like(logits),
    )
    # Compare with the gradient restricted to fresh rows computed manually.
    grad_combined = tiny_graph.normalized_adjacency_matmul(
        np.ones_like(logits),
    )
    mask = np.zeros(tiny_graph.num_vertices, dtype=bool)
    mask[updated] = True
    expected = tiny_graph.features.T @ (grad_combined * mask[:, None])
    np.testing.assert_allclose(grads["W0"], expected, rtol=1e-5)


def test_analog_noise_validation_and_effect(small_graph):
    with pytest.raises(TrainingError):
        GCN([(16, 4)], analog_noise_sigma=-0.1)
    clean = GCN([(16, 4)], random_state=0)
    noisy = GCN([(16, 4)], random_state=0, analog_noise_sigma=0.05)
    features = small_graph.features
    out_clean, _ = gcn_forward_reference(clean, small_graph, features)
    out_noisy, _ = gcn_forward_reference(noisy, small_graph, features)
    # Same weights (same seed), different outputs due to analog noise.
    assert not np.allclose(out_clean, out_noisy)
