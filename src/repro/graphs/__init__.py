"""Graph substrate: data structure, generators, paper datasets, sparsifiers.

This package stands in for the PyTorch-Geometric / OGB layer the paper uses.
The central type is :class:`~repro.graphs.graph.Graph`, an immutable CSR
graph with optional vertex features and labels.  ``datasets`` provides
synthetic stand-ins for the seven graphs in Table III of the paper, matched
on the statistics GoPIM's mechanisms actually consume (degree skew, average
degree, feature dimension, density class), and holds the paper's density
rule.
"""

from repro.graphs.graph import Graph
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    get_spec,
    load_dataset,
)
from repro.graphs.stats import (
    GraphStats,
    compute_stats,
    degree_gini,
    homophily,
    powerlaw_alpha_mle,
)
from repro.graphs.sparsify import (
    degree_rank,
    sparsify_by_degree,
    top_degree_vertices,
)

__all__ = [
    "Graph",
    "dc_sbm_graph",
    "DATASET_SPECS",
    "DatasetSpec",
    "get_spec",
    "load_dataset",
    "degree_rank",
    "sparsify_by_degree",
    "top_degree_vertices",
    "GraphStats",
    "compute_stats",
    "degree_gini",
    "homophily",
    "powerlaw_alpha_mle",
]
