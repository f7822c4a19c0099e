"""Workload: micro-batch partitioning, degree prefix sums, Table IV configs."""

import pickle

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.graphs.datasets import get_spec
from repro.stages.workload import Workload, workload_from_dataset
from tests.oracles.stages import microbatch_range


def test_microbatch_partition(small_workload):
    wl = small_workload
    assert wl.num_microbatches == -(-wl.num_vertices // wl.micro_batch)
    bounds = wl.microbatch_boundaries()
    covered = np.concatenate([
        np.arange(start, stop) for start, stop in zip(bounds, bounds[1:])
    ])
    np.testing.assert_array_equal(covered, np.arange(wl.num_vertices))
    assert [microbatch_range(wl, i) for i in range(wl.num_microbatches)] == (
        list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    )


def test_ragged_last_microbatch(small_graph):
    wl = Workload(small_graph, [(16, 8)], micro_batch=48)
    sizes = wl.microbatch_sizes()
    assert sum(sizes) == wl.num_vertices
    assert sizes[-1] == wl.num_vertices - 48 * (wl.num_microbatches - 1)


def test_microbatch_edges_match_degrees(small_workload):
    wl = small_workload
    edges = wl.microbatch_edge_counts()
    for i in range(wl.num_microbatches):
        start, stop = microbatch_range(wl, i)
        assert edges[i] == wl.graph.degrees[start:stop].sum()
    assert edges.sum() == wl.graph.num_arcs


def test_average_microbatch_edges(small_workload):
    wl = small_workload
    expected = wl.graph.num_arcs / wl.num_microbatches
    assert wl.average_microbatch_edges() == pytest.approx(expected)


def test_stage_chain_matches_dims(small_workload):
    chain = small_workload.stage_chain()
    assert len(chain) == small_workload.num_stages == 8


def test_out_of_range_microbatch(small_workload):
    # The per-index oracle accessors reject an index past the partition.
    with pytest.raises(PipelineError):
        microbatch_range(small_workload, small_workload.num_microbatches)


def test_validation(small_graph):
    with pytest.raises(PipelineError):
        Workload(small_graph, [], micro_batch=4)
    with pytest.raises(PipelineError):
        Workload(small_graph, [(4, 4)], micro_batch=0)


def test_workload_from_dataset_table_iv():
    wl = workload_from_dataset("arxiv", random_state=0)
    spec = get_spec("arxiv")
    assert wl.num_layers == spec.num_layers == 3
    assert wl.layer_dims[0] == (128, 256)
    assert wl.layer_dims[1] == (256, 256)
    assert wl.layer_dims[2] == (256, 40)
    assert wl.micro_batch == 64
    assert wl.name == "arxiv"


def test_workload_from_dataset_reuses_graph(small_graph):
    wl = workload_from_dataset("ddi", graph=small_graph)
    assert wl.graph is small_graph
    assert wl.layer_dims[0][0] == get_spec("ddi").in_channels


def _geometry(workload):
    return (
        workload.microbatch_boundaries(),
        workload.microbatch_sizes(),
        workload.microbatch_edge_counts(),
    )


def test_geometry_is_built_once_and_read_only(small_graph):
    wl = Workload(small_graph, [(16, 8)], micro_batch=48)
    assert wl.num_vertices % wl.micro_batch != 0
    for array, again in zip(_geometry(wl), _geometry(wl)):
        assert array is again
        with pytest.raises(ValueError):
            array[0] = 1


def test_geometry_matches_the_formula_on_a_ragged_partition(small_graph):
    wl = Workload(small_graph, [(16, 8)], micro_batch=48)
    n, b = wl.num_vertices, wl.micro_batch
    bounds = np.minimum(np.arange(-(-n // b) + 1, dtype=np.int64) * b, n)
    prefix = np.concatenate([[0], np.cumsum(small_graph.degrees)])
    expected = (bounds, np.diff(bounds), np.diff(prefix[bounds]))
    for array, want in zip(_geometry(wl), expected):
        assert array.dtype == np.int64
        np.testing.assert_array_equal(array, want)


def test_geometry_is_rebuilt_not_pickled(small_workload):
    state = small_workload.__getstate__()
    assert not any(isinstance(v, np.ndarray) for v in state.values())
    clone = pickle.loads(pickle.dumps(small_workload, protocol=4))
    for array, original in zip(_geometry(clone), _geometry(small_workload)):
        assert not array.flags.writeable
        np.testing.assert_array_equal(array, original)
