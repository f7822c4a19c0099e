"""``infer`` (the stacked model as a fleet of one) vs the serial forward.

abl-quantization's software row and ``examples/deploy_on_hardware.py``
take their logits from :func:`repro.gcn.batched.infer`.  Its outputs must
equal the serial forward's in ``tests/oracles/gnn.py`` bit for bit
(``np.array_equal``), and a model with analog noise must leave its
stream where the serial forward leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.batched import infer
from repro.gcn.model import GCN
from repro.gcn.sage import GraphSAGE
from repro.gcn.trainer import NodeClassificationTrainer
from repro.graphs.generators import dc_sbm_graph
from tests.oracles.gnn import gcn_forward_reference, sage_forward_reference


def _quantization_graph(seed: int):
    """abl-quantization's graph (its default size)."""
    return dc_sbm_graph(
        96, 3, 6.0, random_state=seed,
        feature_dim=12, feature_noise=4.0, intra_ratio=0.7,
    )


@pytest.mark.parametrize("seed", range(5))
def test_trained_gcn_matches_serial_forward(seed):
    graph = _quantization_graph(seed)
    trainer = NodeClassificationTrainer(graph, hidden_dim=16, random_state=seed)
    trainer.train(epochs=10)
    expected, _ = gcn_forward_reference(trainer.model, graph, graph.features)
    assert np.array_equal(infer(trainer.model, graph, graph.features),
                          expected)


def test_deep_gcn_with_analog_noise_matches_and_keeps_stream():
    graph = _quantization_graph(0)
    dims = [(12, 16), (16, 8), (8, 3)]
    ours = GCN(dims, random_state=3, analog_noise_sigma=0.05)
    theirs = GCN(dims, random_state=3, analog_noise_sigma=0.05)
    for _ in range(2):  # the second call reads the advanced stream
        expected, _ = gcn_forward_reference(theirs, graph, graph.features)
        assert np.array_equal(infer(ours, graph, graph.features), expected)
    assert (ours._rng.bit_generator.state
            == theirs._rng.bit_generator.state)


def test_graphsage_matches_serial_forward(small_graph):
    model = GraphSAGE([(16, 8), (8, 4)], random_state=2)
    expected, _ = sage_forward_reference(
        model, small_graph, small_graph.features,
    )
    assert np.array_equal(
        infer(model, small_graph, small_graph.features), expected,
    )


def test_features_are_cast_and_checked(small_graph):
    model = GCN([(16, 4)], random_state=0)
    as_float64 = small_graph.features.astype(np.float64)
    assert np.array_equal(
        infer(model, small_graph, as_float64),
        infer(model, small_graph, small_graph.features),
    )
    with pytest.raises(TrainingError):
        infer(GCN([(3, 2)]), small_graph, small_graph.features)
    with pytest.raises(TrainingError):
        infer(model, small_graph, small_graph.features[:10])
