"""CSR construction and degree pruning against their oracles, plus the
prune memo's lifetime.

``Graph.from_edges`` and ``sparsify_by_degree`` must build byte for byte
the graphs that ``tests/oracles/graph_build.py`` builds: same ``indptr``
and ``indices`` (values and dtype), features, labels and name.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.datasets import load_dataset
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.graphs.sparsify import sparsify_by_degree
from repro.perf import clear_cache
from tests.oracles.graph_build import (
    from_edges_reference,
    sparsify_by_degree_reference,
)


def assert_same_graph(actual: Graph, expected: Graph) -> None:
    assert actual.name == expected.name
    for field in ("indptr", "indices", "features", "labels"):
        got, want = getattr(actual, field), getattr(expected, field)
        if want is None:
            assert got is None, field
            continue
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)
    assert actual.content_fingerprint() == expected.content_fingerprint()


# ----------------------------------------------------------------------
# Graph.from_edges
# ----------------------------------------------------------------------
@st.composite
def edge_inputs(draw):
    """Edge lists with duplicates, reversed pairs, self-loops and isolated
    vertices, as a list or tuple of pairs or an integer ndarray."""
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = []
    if n:
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
        if pairs:
            again = draw(st.lists(st.sampled_from(pairs), max_size=20))
            pairs += again + [(v, u) for u, v in again]
        pairs += [(v, v) for v in draw(st.lists(vertex, max_size=5))]
        pairs = draw(st.permutations(pairs))
    form = draw(st.sampled_from(["list", "tuple", "int64", "int32"]))
    if form == "tuple":
        edges = tuple(pairs)
    elif form == "list":
        edges = list(pairs)
    else:
        edges = np.array(pairs, dtype=form).reshape(-1, 2)
    features = labels = None
    if draw(st.booleans()):
        features = np.arange(n * 3, dtype=np.float32).reshape(n, 3)
        labels = np.arange(n, dtype=np.int64) % 3
    return n, edges, features, labels


@given(edge_inputs())
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_oracle(case):
    n, edges, features, labels = case
    assert_same_graph(
        Graph.from_edges(n, edges, features, labels, name="g"),
        from_edges_reference(n, edges, features, labels, name="g"),
    )


@pytest.mark.parametrize("edges", [[], (), np.empty((0, 2), dtype=np.int64)])
def test_from_edges_empty_input_matches_oracle(edges):
    assert_same_graph(Graph.from_edges(5, edges), from_edges_reference(5, []))
    assert_same_graph(Graph.from_edges(0, edges), from_edges_reference(0, []))


# ----------------------------------------------------------------------
# sparsify_by_degree
# ----------------------------------------------------------------------
def flat_graph(n: int, seed: int) -> Graph:
    """Uniform random pairs: the flat-degree control."""
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, rng.integers(0, n, size=(2 * n, 2)), name="flat")


def hub_graph(n: int, seed: int) -> Graph:
    """Three hubs, each joined to about a third of the vertices, over a
    sparse flat background."""
    rng = np.random.default_rng(seed)
    hubs = rng.choice(n, size=3, replace=False)
    spokes = np.stack([rng.choice(hubs, size=n), np.arange(n)], axis=1)
    background = rng.integers(0, n, size=(n, 2))
    return Graph.from_edges(
        n, np.concatenate([spokes, background]), name="hubs",
    )


def community_graph(n: int, seed: int) -> Graph:
    """Two communities (even and odd ids) with uniform pairs inside each
    and no edge across."""
    rng = np.random.default_rng(seed)
    community = rng.integers(0, 2, size=(2 * n, 1))
    pairs = 2 * rng.integers(0, n // 2, size=(2 * n, 2)) + community
    return Graph.from_edges(
        n, pairs, labels=np.arange(n) % 2, name="communities",
    )


GENERATORS = {
    "dc-sbm": lambda n, seed: dc_sbm_graph(
        n, 3, 6.0, random_state=seed, feature_dim=4,
    ),
    "flat": flat_graph,
    "hubs": hub_graph,
    "communities": community_graph,
}


@given(
    family=st.sampled_from(sorted(GENERATORS)),
    num_vertices=st.integers(min_value=4, max_value=120),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    theta=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_sparsify_matches_oracle(family, num_vertices, seed, theta):
    graph = GENERATORS[family](num_vertices, seed)
    assert_same_graph(
        sparsify_by_degree(graph, theta),
        sparsify_by_degree_reference(graph, theta),
    )


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_sparsify_theta_extremes_match_oracle(small_graph, theta):
    assert_same_graph(
        sparsify_by_degree(small_graph, theta),
        sparsify_by_degree_reference(small_graph, theta),
    )


# ----------------------------------------------------------------------
# The prune memo
# ----------------------------------------------------------------------
def test_repeat_prune_returns_same_instance(small_graph):
    first = sparsify_by_degree(small_graph, 0.3)
    assert sparsify_by_degree(small_graph, 0.3) is first


def test_prune_memo_keyed_by_theta(small_graph):
    base = sparsify_by_degree(small_graph, 0.3)
    other_theta = sparsify_by_degree(small_graph, 0.6)
    assert base.num_arcs < other_theta.num_arcs
    for theta, pruned in ((0.3, base), (0.6, other_theta)):
        assert_same_graph(
            pruned, sparsify_by_degree_reference(small_graph, theta),
        )


def test_pickle_drops_prune_memo(small_graph):
    bare = pickle.dumps(small_graph)
    pruned = sparsify_by_degree(small_graph, 0.3)
    assert pickle.dumps(small_graph) == bare
    clone = pickle.loads(bare)
    again = sparsify_by_degree(clone, 0.3)
    assert again is not pruned
    assert_same_graph(again, pruned)


def test_clear_cache_regenerates_dataset_and_prune():
    clear_cache()
    try:
        graph = load_dataset("cora", random_state=0, scale=0.25)
        pruned = sparsify_by_degree(graph, 0.5)
        assert load_dataset("cora", random_state=0, scale=0.25) is graph
        clear_cache()
        fresh = load_dataset("cora", random_state=0, scale=0.25)
        assert fresh is not graph
        repruned = sparsify_by_degree(fresh, 0.5)
        assert repruned is not pruned
        assert_same_graph(repruned, pruned)
    finally:
        clear_cache()
