"""The DC-SBM generator: target statistics, determinism, validation."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.generators import dc_sbm_graph


def test_dc_sbm_combines_skew_and_communities():
    g = dc_sbm_graph(600, 4, 16.0, random_state=5, feature_dim=8)
    assert g.num_classes == 4
    # Heavy tail: max degree well above mean.
    assert g.degrees.max() > 4 * g.average_degree
    # Edge-count targeting despite dedup of heavy-tail duplicates.
    assert 0.8 * 16.0 < g.average_degree <= 16.5
    edges = g.edge_list()
    intra = (g.labels[edges[:, 0]] == g.labels[edges[:, 1]]).mean()
    assert intra > 0.55


def test_dc_sbm_determinism():
    a = dc_sbm_graph(150, 3, 8.0, random_state=11, feature_dim=4)
    b = dc_sbm_graph(150, 3, 8.0, random_state=11, feature_dim=4)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_allclose(a.features, b.features)


def test_dc_sbm_validation():
    with pytest.raises(GraphError):
        dc_sbm_graph(3, 5, 4.0)
    with pytest.raises(GraphError):
        dc_sbm_graph(10, 2, 4.0, intra_ratio=2.0)
    with pytest.raises(GraphError):
        dc_sbm_graph(10, 2, -1.0)


def test_zero_degree_graphs():
    g = dc_sbm_graph(20, 2, 0.0, random_state=0)
    assert g.num_edges == 0
