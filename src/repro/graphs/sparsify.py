"""Graph sparsification utilities (Section II-C of the paper).

GoPIM's selective updating (Section VI) is driven by *vertex importance*:
vertices are ranked by degree and the top ``theta`` fraction are treated as
important.  The helpers here implement that ranking plus
:func:`sparsify_by_degree`, which keeps only edges incident to important
vertices (the input-subgraph pruning that SlimGNN-like performs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph


def top_degree_vertices(graph: Graph, theta: float) -> np.ndarray:
    """Ids of the top ``theta`` fraction of vertices by degree.

    Ties are broken by vertex id so the result is deterministic.  The result
    is sorted by descending degree — the order interleaved mapping consumes.
    """
    if not 0.0 <= theta <= 1.0:
        raise GraphError(f"theta must be in [0, 1], got {theta}")
    count = int(round(theta * graph.num_vertices))
    order = np.lexsort((np.arange(graph.num_vertices), -graph.degrees))
    return order[:count]


def degree_rank(graph: Graph) -> np.ndarray:
    """All vertex ids sorted by descending degree (deterministic ties)."""
    return np.lexsort((np.arange(graph.num_vertices), -graph.degrees))


def sparsify_by_degree(graph: Graph, theta: float) -> Graph:
    """Prune edges with no important (top-theta degree) endpoint.

    An edge survives when at least one endpoint is important: this is
    SlimGNN-like's input-subgraph pruning, where unimportant vertices stop
    being aggregation *targets* but are still read as neighbours of
    important ones.

    The keep mask is symmetric, so filtering the CSR arcs gives the graph
    a rebuild from the kept edges would, without re-sorting.  The result
    is memoised on ``graph`` per ``theta``: a repeat prune returns the
    same instance.
    """
    def build() -> Graph:
        important = np.zeros(graph.num_vertices, dtype=bool)
        important[top_degree_vertices(graph, theta)] = True
        keep = important[graph.arc_sources()] | important[graph.indices]
        return graph.filter_arcs(keep, name=f"{graph.name}-deg-sparse")

    return graph.cached(("deg-sparse", float(theta)), build)
