"""Graph sparsification utilities (Section II-C of the paper).

GoPIM's selective updating (Section VI) is driven by *vertex importance*:
vertices are ranked by degree and the top ``theta`` fraction are treated as
important.  The helpers here implement that ranking plus two classic
sparsifiers used by the baselines:

* :func:`drop_edges_random` — DropEdge-style heuristic sparsification;
* :func:`sparsify_by_degree` — keep only edges incident to important
  vertices (the input-subgraph pruning that SlimGNN-like performs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.generators import RandomState, _rng
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


def drop_edges_random(
    graph: Graph,
    drop_fraction: float,
    random_state: RandomState = None,
) -> Graph:
    """Remove a uniform random fraction of undirected edges (DropEdge)."""
    if not 0.0 <= drop_fraction <= 1.0:
        raise GraphError("drop_fraction must be in [0, 1]")
    rng = _rng(random_state)
    edges = graph.edge_list()
    keep_count = int(round((1.0 - drop_fraction) * edges.shape[0]))
    kept = rng.permutation(edges.shape[0])[:keep_count]
    return Graph.from_edges(
        graph.num_vertices, edges[kept],
        features=graph.features, labels=graph.labels,
        name=f"{graph.name}-dropedge",
    )


def sparsify_by_degree(graph: Graph, theta: float, mode: str = "both") -> Graph:
    """Prune edges not touching important (top-theta degree) vertices.

    ``mode="both"`` keeps edges whose *both* endpoints are important — the
    induced important subgraph.  ``mode="either"`` keeps edges with at
    least one important endpoint: this is SlimGNN-like's input-subgraph
    pruning, where unimportant vertices stop being aggregation *targets*
    but are still read as neighbours of important ones.

    The keep mask is symmetric, so filtering the CSR arcs gives the graph
    a rebuild from the kept edges would, without re-sorting.  The result
    is memoised on ``graph`` per ``(theta, mode)``: a repeat prune returns
    the same instance.
    """
    if mode not in ("both", "either"):
        raise GraphError(f"mode must be 'both' or 'either', got {mode!r}")

    def build() -> Graph:
        important = np.zeros(graph.num_vertices, dtype=bool)
        important[top_degree_vertices(graph, theta)] = True
        src = important[graph.arc_sources()]
        dst = important[graph.indices]
        keep = src & dst if mode == "both" else src | dst
        return graph.filter_arcs(keep, name=f"{graph.name}-deg-sparse")

    return graph.cached(("deg-sparse", float(theta), mode), build)
