"""Graph statistics module."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.graphs.stats import (
    TAIL_MIN_DEGREE,
    compute_stats,
    degree_gini,
    homophily,
    powerlaw_alpha_mle,
)


def test_compute_stats_fields(small_graph):
    stats = compute_stats(small_graph)
    assert stats.num_vertices == small_graph.num_vertices
    assert stats.num_edges == small_graph.num_edges
    assert stats.degree_p50 <= stats.degree_p90 <= stats.degree_p99
    assert stats.max_degree == small_graph.degrees.max()
    assert 0.0 <= stats.degree_gini <= 1.0
    d = stats.as_dict()
    assert d["average_degree"] == pytest.approx(small_graph.average_degree)


def test_powerlaw_alpha_reasonable():
    # Degrees drawn from a power law above the fit's d_min - 1/2 (a
    # continuous Pareto sample, rounded): the estimate tracks the true
    # exponent (within 10%; the discrete form is biased low at d_min = 2).
    estimates = []
    for alpha in (2.0, 2.5, 3.0):
        uniform = np.random.default_rng(0).random(20_000)
        sample = (TAIL_MIN_DEGREE - 0.5) * (1.0 - uniform) ** (-1 / (alpha - 1))
        estimate = powerlaw_alpha_mle(np.round(sample).astype(np.int64))
        assert estimate == pytest.approx(alpha, rel=0.1)
        estimates.append(estimate)
    assert estimates == sorted(estimates)
    g = dc_sbm_graph(2000, 4, 16.0, random_state=0)
    assert powerlaw_alpha_mle(g.degrees) > 1.0


def test_powerlaw_alpha_none_for_tiny():
    degrees = np.array([1, 1, 2])
    assert powerlaw_alpha_mle(degrees) is None


def test_gini_flat_vs_skewed():
    # Uniform random pairs: the flat-degree control (mean degree ~10).
    pairs = np.random.default_rng(0).integers(0, 500, size=(2500, 2))
    flat = Graph.from_edges(500, pairs)
    skewed = dc_sbm_graph(500, 2, 10.0, random_state=0)
    assert degree_gini(skewed.degrees) > degree_gini(flat.degrees)
    assert degree_gini(np.array([], dtype=np.int64)) == 0.0
    assert degree_gini(np.zeros(5, dtype=np.int64)) == 0.0


def test_homophily_labelled_and_not(small_graph):
    value = homophily(small_graph)
    assert value is not None and 0.0 <= value <= 1.0
    unlabelled = Graph.from_edges(4, [(0, 1)])
    assert homophily(unlabelled) is None
    no_edges = Graph.from_edges(3, [], labels=np.zeros(3, dtype=np.int64))
    assert homophily(no_edges) is None


def test_paper_datasets_have_community_structure():
    g = load_dataset("arxiv", random_state=0)
    stats = compute_stats(g)
    # Intra ratio 0.55 -> homophily clearly above the 1/16 random chance.
    assert stats.homophily > 0.3
    assert stats.degree_gini > 0.2  # heavy-tailed


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        compute_stats(Graph(np.array([0]), np.array([], dtype=np.int64)))
