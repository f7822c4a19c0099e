"""Sparsifiers and degree-based selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.sparsify import (
    degree_rank,
    sparsify_by_degree,
    top_degree_vertices,
)


def test_top_degree_vertices_selects_highest(tiny_graph):
    top = top_degree_vertices(tiny_graph, 0.5)
    assert len(top) == 3
    assert top[0] == 0  # degree 3 is the max
    selected_degrees = tiny_graph.degrees[top]
    unselected = np.setdiff1d(np.arange(6), top)
    assert selected_degrees.min() >= tiny_graph.degrees[unselected].max()


def test_top_degree_deterministic_ties(tiny_graph):
    a = top_degree_vertices(tiny_graph, 0.5)
    b = top_degree_vertices(tiny_graph, 0.5)
    np.testing.assert_array_equal(a, b)


def test_top_degree_bounds(tiny_graph):
    assert len(top_degree_vertices(tiny_graph, 0.0)) == 0
    assert len(top_degree_vertices(tiny_graph, 1.0)) == 6
    with pytest.raises(GraphError):
        top_degree_vertices(tiny_graph, 1.5)


def test_degree_rank_descending(small_graph):
    order = degree_rank(small_graph)
    degs = small_graph.degrees[order]
    assert np.all(np.diff(degs) <= 0)


def test_sparsify_by_degree_keeps_important_subgraph(small_graph):
    theta = 0.5
    pruned = sparsify_by_degree(small_graph, theta)
    important = set(top_degree_vertices(small_graph, theta).tolist())
    kept = {tuple(edge) for edge in pruned.edge_list().tolist()}
    # An edge survives iff at least one endpoint is important.
    for u, v in small_graph.edge_list().tolist():
        assert ((u, v) in kept) == (u in important or v in important)
    assert pruned.num_vertices == small_graph.num_vertices


@given(theta=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_selection_size_matches_theta(theta):
    g = dc_sbm_graph(120, 3, 6.0, random_state=0)
    top = top_degree_vertices(g, theta)
    assert len(top) == int(round(theta * g.num_vertices))
