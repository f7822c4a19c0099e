"""Graph core: CSR invariants, accessors, linear algebra, transformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.graph import Graph


def test_from_edges_basic(tiny_graph):
    assert tiny_graph.num_vertices == 6
    assert tiny_graph.num_edges == 6
    assert tiny_graph.num_arcs == 12
    np.testing.assert_array_equal(
        tiny_graph.degrees, [3, 2, 2, 2, 2, 1],
    )


def test_neighbors_sorted_and_symmetric(tiny_graph):
    np.testing.assert_array_equal(tiny_graph.neighbors(0), [1, 2, 3])
    for v in range(tiny_graph.num_vertices):
        for u in tiny_graph.neighbors(v):
            assert v in tiny_graph.neighbors(int(u))


def test_neighbors_out_of_range(tiny_graph):
    with pytest.raises(GraphError):
        tiny_graph.neighbors(6)
    with pytest.raises(GraphError):
        tiny_graph.neighbors(-1)


def test_self_loops_dropped():
    g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 1)])
    assert g.num_edges == 1


def test_duplicate_edges_dedup():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1
    np.testing.assert_array_equal(g.indptr, [0, 1, 2, 2])
    np.testing.assert_array_equal(g.indices, [1, 0])


def test_empty_graph():
    g = Graph.from_edges(4, [])
    assert g.num_edges == 0
    assert g.average_degree == 0.0
    assert g.density == 0.0


def test_non_integer_endpoints_rejected():
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, [(0.5, 1.7)])
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, np.array([[0.0, 1.0]]))
    # Empty input stays valid whatever its dtype.
    assert Graph.from_edges(3, []).num_edges == 0
    assert Graph.from_edges(3, np.empty((0, 2))).num_edges == 0


def test_invalid_inputs():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(GraphError):
        Graph.from_edges(-1, [])
    with pytest.raises(GraphError):
        Graph(np.array([1, 2]), np.array([0]))  # indptr[0] != 0
    with pytest.raises(GraphError):
        Graph(np.array([0, 2]), np.array([0]))  # indptr[-1] != len(indices)


def test_features_and_labels_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1)], features=np.zeros((2, 4)))
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1)], labels=np.zeros(2, dtype=int))


def test_density_and_sparsity(tiny_graph):
    assert tiny_graph.density == pytest.approx(6 / 15)
    assert tiny_graph.sparsity == pytest.approx(1 - 12 / 36)


def test_is_dense_threshold(tiny_graph):
    assert not tiny_graph.is_dense()  # avg degree 2
    assert tiny_graph.is_dense(threshold=1.0)


def test_adjacency_matmul_matches_dense(tiny_graph):
    n = tiny_graph.num_vertices
    dense = np.zeros((n, n))
    for v in range(n):
        for u in tiny_graph.neighbors(v):
            dense[v, u] = 1.0
    x = np.random.default_rng(0).normal(size=(n, 3)).astype(np.float32)
    np.testing.assert_allclose(
        tiny_graph.adjacency_matmul(x), dense @ x, rtol=1e-5,
    )


def test_normalized_adjacency_matmul_matches_dense(tiny_graph):
    n = tiny_graph.num_vertices
    dense = np.zeros((n, n))
    for v in range(n):
        for u in tiny_graph.neighbors(v):
            dense[v, u] = 1.0
    dense += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(tiny_graph.degrees + 1.0)
    norm = dense * inv_sqrt[:, None] * inv_sqrt[None, :]
    x = np.random.default_rng(1).normal(size=(n, 2)).astype(np.float32)
    np.testing.assert_allclose(
        tiny_graph.normalized_adjacency_matmul(x), norm @ x, rtol=1e-4,
    )


def test_matmul_shape_mismatch(tiny_graph):
    with pytest.raises(GraphError):
        tiny_graph.adjacency_matmul(np.zeros((3, 2)))
    with pytest.raises(GraphError):
        tiny_graph.normalized_adjacency_matmul(np.zeros((3, 2)))


def test_with_features_and_labels(tiny_graph):
    new_features = np.ones((6, 2), dtype=np.float32)
    g = tiny_graph.with_features(new_features)
    assert g.feature_dim == 2
    np.testing.assert_array_equal(g.labels, tiny_graph.labels)
    g2 = tiny_graph.with_labels(np.zeros(6, dtype=np.int64))
    assert g2.num_classes == 1


def test_edge_list_roundtrip(tiny_graph):
    edges = tiny_graph.edge_list()
    rebuilt = Graph.from_edges(tiny_graph.num_vertices, edges)
    np.testing.assert_array_equal(rebuilt.degrees, tiny_graph.degrees)


def test_views_are_readonly(tiny_graph):
    with pytest.raises(ValueError):
        tiny_graph.degrees[0] = 5
    with pytest.raises(ValueError):
        tiny_graph.indices[0] = 0
    with pytest.raises(ValueError):
        tiny_graph.indptr[0] = 1


def test_num_classes(tiny_graph):
    assert tiny_graph.num_classes == 2
    assert Graph.from_edges(2, [(0, 1)]).num_classes == 0


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=0, max_value=60))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    return n, edges


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_invariants_hold(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    # indptr is monotone and consistent with indices.
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.num_arcs
    assert np.all(np.diff(g.indptr) >= 0)
    # Undirected symmetry: arc (u, v) implies arc (v, u).
    src = np.repeat(np.arange(n), g.degrees)
    pairs = set(zip(src.tolist(), g.indices.tolist()))
    assert all((v, u) in pairs for u, v in pairs)
    # No self loops; degrees sum to arcs.
    assert all(u != v for u, v in pairs)
    assert g.degrees.sum() == g.num_arcs


@given(edge_lists())
@settings(max_examples=30, deadline=None)
def test_adjacency_matmul_linear(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, 2)).astype(np.float32)
    y = rng.normal(size=(n, 2)).astype(np.float32)
    left = g.adjacency_matmul(x + y)
    right = g.adjacency_matmul(x) + g.adjacency_matmul(y)
    np.testing.assert_allclose(left, right, rtol=1e-4, atol=1e-4)
