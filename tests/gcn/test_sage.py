"""GraphSAGE construction, and the serial forward/backward oracle
(``tests/oracles/gnn.py``): forward semantics, gradcheck, staleness."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.sage import GraphSAGE
from tests.oracles.gnn import (
    StaleFeatureStore,
    cross_entropy_loss,
    sage_backward_reference,
    sage_forward_reference,
)


def test_forward_shapes(small_graph):
    model = GraphSAGE([(16, 8), (8, 4)], random_state=0)
    out, cache = sage_forward_reference(
        model, small_graph, small_graph.features,
    )
    assert out.shape == (small_graph.num_vertices, 4)
    assert len(cache["inputs"]) == 2


def test_mean_aggregation_matches_manual(tiny_graph):
    model = GraphSAGE([(4, 3)], random_state=0)
    out, _ = sage_forward_reference(model, tiny_graph, tiny_graph.features)
    x = tiny_graph.features
    mean_agg = tiny_graph.mean_adjacency_matmul(x)
    expected = x @ model.params["W0_self"] + mean_agg @ model.params["W0_neigh"]
    np.testing.assert_allclose(out, expected, rtol=1e-5)


def test_dims_validation():
    with pytest.raises(TrainingError):
        GraphSAGE([(4, 8), (9, 2)])
    with pytest.raises(TrainingError):
        GraphSAGE([])


def test_backward_gradcheck(tiny_graph):
    model = GraphSAGE([(4, 5), (5, 2)], random_state=1)
    features = tiny_graph.features
    labels = tiny_graph.labels

    def loss_value():
        logits, _ = sage_forward_reference(model, tiny_graph, features)
        loss, _ = cross_entropy_loss(logits, labels)
        return loss

    logits, cache = sage_forward_reference(model, tiny_graph, features)
    _, grad_logits = cross_entropy_loss(logits, labels)
    grads = sage_backward_reference(model, tiny_graph, cache, grad_logits)

    eps = 1e-3
    rng = np.random.default_rng(0)
    for key in grads:
        w = model.params[key]
        for _ in range(4):
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


def test_staleness_freezes_aggregation(small_graph):
    model = GraphSAGE([(16, 8)], random_state=0)
    features = small_graph.features
    store = StaleFeatureStore(1)
    out_full, _ = sage_forward_reference(
        model, small_graph, features, store=store, updated=None,
    )
    # With nothing refreshed, the aggregation path is frozen; only the
    # self path sees weight changes.
    model.params["W0_neigh"] += 1.0
    out_stale, _ = sage_forward_reference(
        model, small_graph, features, store=store,
        updated=np.array([], dtype=np.int64),
    )
    # Self path unchanged, neigh weights changed but resident input is the
    # same -> outputs move by agg @ delta, which is nonzero; the point of
    # the store is the *resident features* stay frozen:
    resident = store.read(0)
    np.testing.assert_allclose(resident, features, rtol=1e-6)
    assert not np.allclose(out_stale, out_full)


def test_sage_learns_on_communities():
    from repro.graphs.generators import dc_sbm_graph
    from repro.gcn.optim import Adam
    from repro.gcn.losses import accuracy

    graph = dc_sbm_graph(
        200, 3, 10.0, random_state=0, feature_dim=12, intra_ratio=0.9,
    )
    model = GraphSAGE([(12, 16), (16, 3)], random_state=0)
    optimizer = Adam()
    for _ in range(30):
        logits, cache = sage_forward_reference(model, graph, graph.features)
        loss, grad = cross_entropy_loss(logits, graph.labels)
        grads = sage_backward_reference(model, graph, cache, grad)
        optimizer.step(model.params, grads)
    logits, _ = sage_forward_reference(model, graph, graph.features)
    assert accuracy(logits, graph.labels) > 0.75


def test_mean_adjacency_matmul(tiny_graph):
    x = np.eye(6, dtype=np.float32)[:, :3]
    mean_agg = tiny_graph.mean_adjacency_matmul(x)
    # Vertex 0 has neighbours 1, 2, 3 -> mean of their rows.
    expected0 = (x[1] + x[2] + x[3]) / 3
    np.testing.assert_allclose(mean_agg[0], expected0, rtol=1e-6)
