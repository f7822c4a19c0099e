"""Functional GCN-on-crossbars: numerics vs the numpy model, cost counts."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.batched import infer
from repro.gcn.model import GCN
from repro.graphs.generators import dc_sbm_graph
from repro.hardware.functional_gcn import FunctionalGCN


@pytest.fixture(scope="module")
def graph():
    return dc_sbm_graph(40, 2, 4.0, random_state=0, feature_dim=8)


@pytest.fixture(scope="module")
def model():
    return GCN([(8, 12), (12, 4)], random_state=1)


def test_matches_numpy_model(graph, model):
    hardware = FunctionalGCN(model)
    features = graph.features
    hw_out = hardware.forward(graph, features)
    sw_out = infer(model, graph, features)
    np.testing.assert_allclose(hw_out, sw_out, rtol=1e-2, atol=1e-2)


def test_quantized_close_to_exact(graph, model):
    from repro.hardware.config import DEFAULT_CONFIG

    cfg = DEFAULT_CONFIG.scaled(weight_bits=8)
    exact = FunctionalGCN(model, config=cfg).forward(graph, graph.features)
    quant = FunctionalGCN(model, config=cfg, quantize=True).forward(
        graph, graph.features,
    )
    # Quantisation error stays small relative to the output scale.
    scale = np.abs(exact).mean() + 1e-6
    assert np.abs(quant - exact).mean() < 0.2 * scale


def test_noise_perturbs_output(graph, model):
    clean = FunctionalGCN(model).forward(graph, graph.features)
    noisy = FunctionalGCN(model, read_noise_sigma=0.05).forward(
        graph, graph.features,
    )
    assert not np.allclose(clean, noisy)
    # But stays in the same ballpark.
    scale = np.abs(clean).mean() + 1e-6
    assert np.abs(noisy - clean).mean() < 0.5 * scale


def test_event_counts_match_analytic_structure(graph, model):
    hardware = FunctionalGCN(model)
    hardware.forward(graph, graph.features)
    stats = hardware.stats()
    n = graph.num_vertices
    # Aggregation fires one activation per directed edge per layer (per
    # col tile — both layers' grids have one here); Combination streams
    # one row per vertex per layer.
    expected_edge_activations = graph.num_arcs * model.num_layers
    expected_co_streams = n * model.num_layers
    assert stats.mvm_reads == expected_edge_activations + expected_co_streams
    # Feature grids were programmed once per layer: n rows each.
    assert stats.row_writes >= n * model.num_layers


def test_total_crossbars(graph, model):
    hardware = FunctionalGCN(model)
    hardware.forward(graph, graph.features)
    assert hardware.total_crossbars() >= 2 + 2  # weights + feature grids


def test_shape_validation(graph, model):
    hardware = FunctionalGCN(model)
    with pytest.raises(TrainingError):
        hardware.forward(graph, graph.features[:, :4])
    with pytest.raises(TrainingError):
        hardware.forward(graph, graph.features[:10])
