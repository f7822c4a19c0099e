"""Graph serialisation: save/load to compressed npz.

Lets expensive synthetic datasets (or externally converted real ones) be
cached on disk.  The format stores the CSR arrays plus optional features
and labels, with a small header for validation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph

FORMAT_VERSION = 1


def save_graph(graph: Graph, path: Union[str, Path]) -> None:
    """Write a graph to ``path`` (npz, compressed)."""
    arrays = {
        "format_version": np.array([FORMAT_VERSION]),
        "name": np.array([graph.name]),
        "indptr": np.asarray(graph.indptr),
        "indices": np.asarray(graph.indices),
    }
    if graph.features is not None:
        arrays["features"] = graph.features
    if graph.labels is not None:
        arrays["labels"] = graph.labels
    np.savez_compressed(path, **arrays)


def load_graph(path: Union[str, Path]) -> Graph:
    """Read a graph written by :func:`save_graph`.

    The CSR must be canonical, as :meth:`Graph.from_edges` builds it: rows
    strictly increasing, no self-loops, every arc ``(u, v)`` with ``(v, u)``.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise GraphError(f"cannot load graph from {path}: {exc}") from exc
    try:
        version = int(data["format_version"][0])
        if version != FORMAT_VERSION:
            raise GraphError(
                f"unsupported graph format version {version}"
            )
        graph = Graph(
            indptr=data["indptr"],
            indices=data["indices"],
            features=data["features"] if "features" in data else None,
            labels=data["labels"] if "labels" in data else None,
            name=str(data["name"][0]),
        )
    except KeyError as exc:
        raise GraphError(f"malformed graph file {path}: missing {exc}") from exc
    n = graph.num_vertices
    src, dst = graph.arc_sources(), graph.indices
    arcs = src * n + dst
    if (np.any(np.diff(arcs) <= 0) or np.any(src == dst)
            or not np.array_equal(np.sort(dst * n + src), arcs)):
        raise GraphError(f"graph file {path} is not a canonical undirected CSR")
    return graph
