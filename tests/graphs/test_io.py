"""Graph npz serialisation."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.io import load_graph, save_graph


def test_round_trip_full(tiny_graph, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(tiny_graph, path)
    loaded = load_graph(path)
    assert loaded.name == tiny_graph.name
    np.testing.assert_array_equal(loaded.indptr, tiny_graph.indptr)
    np.testing.assert_array_equal(loaded.indices, tiny_graph.indices)
    np.testing.assert_allclose(loaded.features, tiny_graph.features)
    np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)


def test_round_trip_bare(tmp_path):
    from repro.graphs.graph import Graph

    g = Graph.from_edges(5, [(0, 1), (2, 3)], name="bare")
    path = tmp_path / "bare.npz"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded.features is None and loaded.labels is None
    assert loaded.num_edges == 2


def test_load_missing(tmp_path):
    with pytest.raises(GraphError):
        load_graph(tmp_path / "absent.npz")


def test_load_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not an npz")
    with pytest.raises(GraphError):
        load_graph(path)


def test_version_mismatch(tiny_graph, tmp_path):
    path = tmp_path / "g.npz"
    np.savez_compressed(
        path,
        format_version=np.array([99]),
        name=np.array(["x"]),
        indptr=np.asarray(tiny_graph.indptr),
        indices=np.asarray(tiny_graph.indices),
    )
    with pytest.raises(GraphError):
        load_graph(path)


def _write_csr(path, indptr, indices):
    np.savez_compressed(
        path,
        format_version=np.array([1]),
        name=np.array(["crafted"]),
        indptr=np.array(indptr),
        indices=np.array(indices),
    )


@pytest.mark.parametrize(
    "indptr, indices",
    [
        pytest.param([0, 2, 3, 5], [1, 1, 0, 0, 2], id="duplicate-and-one-way"),
        pytest.param([0, 2, 4], [1, 1, 0, 0], id="symmetric-duplicates"),
        pytest.param([0, 2, 3, 4], [2, 1, 0, 0], id="unsorted-row"),
        pytest.param([0, 2, 3], [0, 1, 0], id="self-loop"),
        pytest.param([0, 1, 1], [1], id="one-way-arc"),
        pytest.param([0, 1, 2, 3], [1, 2, 0], id="directed-cycle"),
    ],
)
def test_load_rejects_non_canonical_csr(tmp_path, indptr, indices):
    path = tmp_path / "crafted.npz"
    _write_csr(path, indptr, indices)
    with pytest.raises(GraphError, match="canonical"):
        load_graph(path)


def test_load_accepts_canonical_csr(tmp_path):
    path = tmp_path / "canonical.npz"
    _write_csr(path, [0, 2, 3, 4, 4], [1, 2, 0, 0])
    loaded = load_graph(path)
    np.testing.assert_array_equal(loaded.degrees, [2, 1, 1, 0])
