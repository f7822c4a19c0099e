"""Vertex mapping strategies: index vs interleaved (Fig. 6 mechanism)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.datasets import relabel_by_noisy_degree
from repro.mapping.vertex_map import index_mapping, interleaved_mapping


def test_index_mapping_layout():
    mapping = index_mapping(10, rows_per_crossbar=4)
    assert mapping.num_crossbars == 3
    np.testing.assert_array_equal(
        mapping.crossbar_of, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2],
    )
    np.testing.assert_array_equal(
        mapping.wordline_of, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1],
    )


def test_index_mapping_validation():
    with pytest.raises(MappingError):
        index_mapping(0, 64)
    with pytest.raises(MappingError):
        index_mapping(5, rows_per_crossbar=0)


def test_interleaved_mapping_is_a_valid_assignment(small_graph):
    mapping = interleaved_mapping(small_graph, rows_per_crossbar=16)
    n = small_graph.num_vertices
    assert mapping.crossbar_of.shape == (n,)
    assert mapping.num_crossbars == -(-n // 16)
    assert mapping.crossbar_of.min() >= 0
    assert mapping.crossbar_of.max() < mapping.num_crossbars
    # Capacity respected: no crossbar holds more than its wordlines.
    counts = np.bincount(mapping.crossbar_of, minlength=mapping.num_crossbars)
    assert counts.max() <= 16


def test_interleaved_balances_degrees(small_graph):
    graph = relabel_by_noisy_degree(small_graph, random_state=0)
    indexed = index_mapping(graph.num_vertices, 16)
    interleaved = interleaved_mapping(graph, 16)
    idx_means = indexed.average_degree_per_crossbar(graph)
    int_means = interleaved.average_degree_per_crossbar(graph)
    # Interleaving shrinks the spread of per-crossbar mean degrees.
    assert int_means.std() < 0.5 * idx_means.std()


def test_fig06_spread_on_paper_dataset():
    graph = load_dataset("proteins", random_state=0)
    indexed = index_mapping(graph.num_vertices, 64)
    interleaved = interleaved_mapping(graph, 64)
    idx = indexed.average_degree_per_crossbar(graph)
    inter = interleaved.average_degree_per_crossbar(graph)
    idx_spread = idx.max() / max(idx.min(), 1e-9)
    int_spread = inter.max() / max(inter.min(), 1e-9)
    # Paper's Fig. 6: index mapping spreads are enormous (1.6..2266.8);
    # interleaved mapping flattens them.
    assert idx_spread > 5.0
    assert int_spread < idx_spread / 3


def test_rows_per_crossbar_for(small_graph):
    mapping = index_mapping(small_graph.num_vertices, 16)
    batch = np.arange(16)  # one full crossbar's worth of consecutive ids
    counts = mapping.rows_per_crossbar_for(batch)
    assert counts[0] == 16
    assert counts[1:].sum() == 0
    with pytest.raises(MappingError):
        mapping.rows_per_crossbar_for(np.array([10_000]))


def test_interleaved_spreads_consecutive_batches(small_graph):
    mapping = interleaved_mapping(small_graph, 16)
    batch = np.arange(16)
    counts = mapping.rows_per_crossbar_for(batch)
    # A consecutive-id batch lands on many crossbars, not one.
    assert counts.max() <= 4


def test_vertices_on(small_graph):
    mapping = interleaved_mapping(small_graph, 16)
    seen = np.concatenate([
        mapping.vertices_on(c) for c in range(mapping.num_crossbars)
    ])
    np.testing.assert_array_equal(
        np.sort(seen), np.arange(small_graph.num_vertices),
    )
    with pytest.raises(MappingError):
        mapping.vertices_on(mapping.num_crossbars)


def test_average_degree_requires_matching_graph(small_graph, tiny_graph):
    mapping = index_mapping(small_graph.num_vertices, 16)
    with pytest.raises(MappingError):
        mapping.average_degree_per_crossbar(tiny_graph)


@given(
    n=st.integers(2, 300),
    rows=st.sampled_from([4, 16, 64]),
)
@settings(max_examples=40, deadline=None)
def test_interleaved_partition_property(n, rows):
    graph = dc_sbm_graph(n, 2, min(6.0, n / 4), random_state=1)
    mapping = interleaved_mapping(graph, rows)
    # Every vertex mapped exactly once; capacity respected.
    counts = np.bincount(mapping.crossbar_of, minlength=mapping.num_crossbars)
    assert counts.sum() == n
    assert counts.max() <= rows
    assert mapping.num_crossbars == -(-n // rows)
