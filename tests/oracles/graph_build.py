"""Oracles for building a CSR graph, pruning it by degree and its SpMM.

``from_edges_reference`` dedupes with ``np.unique``, re-sorts with
``lexsort`` and counts rows with ``np.add.at``; ``sparsify_by_degree_reference``
filters the undirected edge list and rebuilds the graph from it.
:meth:`repro.graphs.graph.Graph.from_edges` (one sort of packed keys) and
:func:`repro.graphs.sparsify.sparsify_by_degree` (a CSR arc filter) must
give byte-identical graphs.  ``adjacency_matmul_reference`` scatter-adds
each arc's row with ``np.add.at``; :meth:`Graph.adjacency_matmul` (a
scipy CSR product) must match it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.sparsify import top_degree_vertices


def from_edges_reference(
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    name: str = "graph",
) -> Graph:
    """Undirected, deduplicated, self-loop-free graph from an edge list."""
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    edge_array = np.asarray(list(edges), dtype=np.int64)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    if edge_array.size and (
        edge_array.min() < 0 or edge_array.max() >= num_vertices
    ):
        raise GraphError("edge endpoints out of range")

    src = edge_array[:, 0]
    dst = edge_array[:, 1]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if src.size:
        packed = src * np.int64(num_vertices) + dst
        packed = np.unique(packed)
        src = packed // num_vertices
        dst = packed % num_vertices

    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return Graph(indptr, dst, features=features, labels=labels, name=name)


def sparsify_by_degree_reference(graph: Graph, theta: float) -> Graph:
    """Keep the edges with at least one endpoint among the top-``theta``
    degree vertices, by edge-list rebuild."""
    important = np.zeros(graph.num_vertices, dtype=bool)
    important[top_degree_vertices(graph, theta)] = True
    edges = graph.edge_list()
    if edges.size:
        keep = important[edges[:, 0]] | important[edges[:, 1]]
        edges = edges[keep]
    return from_edges_reference(
        graph.num_vertices, edges,
        features=graph.features, labels=graph.labels,
        name=f"{graph.name}-deg-sparse",
    )


def adjacency_matmul_reference(graph: Graph, matrix: np.ndarray) -> np.ndarray:
    """Scatter-add (``np.add.at``) SpMM kept as the equivalence oracle."""
    matrix = np.asarray(matrix, dtype=np.float32)
    graph._check_rows(matrix)
    out = np.zeros_like(matrix)
    src = np.repeat(np.arange(graph.num_vertices), graph._degrees)
    np.add.at(out, src, matrix[graph._indices])
    return out
