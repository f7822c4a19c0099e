"""Graph statistics used for dataset validation and reports.

Quantifies the properties the synthetic stand-ins must match (DESIGN.md
section 1): degree-distribution shape (quantiles, tail exponent via the
Clauset-style MLE), clustering, and homophily (the fraction of edges
joining same-label vertices — what makes node classification learnable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph

#: Smallest degree the tail-exponent fit reads.
TAIL_MIN_DEGREE = 2


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one graph."""

    num_vertices: int
    num_edges: int
    average_degree: float
    max_degree: int
    degree_p50: float
    degree_p90: float
    degree_p99: float
    density: float
    powerlaw_alpha: Optional[float]
    homophily: Optional[float]
    degree_gini: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for tabulation."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "average_degree": self.average_degree,
            "max_degree": self.max_degree,
            "degree_p50": self.degree_p50,
            "degree_p90": self.degree_p90,
            "degree_p99": self.degree_p99,
            "density": self.density,
            "powerlaw_alpha": self.powerlaw_alpha,
            "homophily": self.homophily,
            "degree_gini": self.degree_gini,
        }


def powerlaw_alpha_mle(degrees: np.ndarray) -> Optional[float]:
    """Continuous MLE of the degree tail exponent (Clauset et al. form).

    ``alpha = 1 + n / sum(ln(d / (d_min - 1/2)))`` over degrees >= d_min
    (:data:`TAIL_MIN_DEGREE`).  Returns ``None`` when fewer than 10
    vertices reach the tail.
    """
    tail = np.asarray(degrees[degrees >= TAIL_MIN_DEGREE], dtype=np.float64)
    if tail.size < 10:
        return None
    scaled = tail / (TAIL_MIN_DEGREE - 0.5)
    return float(1.0 + tail.size / np.log(scaled).sum())


def degree_gini(degrees: np.ndarray) -> float:
    """Gini coefficient of the degree distribution (0 = flat, ->1 skewed)."""
    degrees = np.sort(np.asarray(degrees, dtype=np.float64))
    n = degrees.size
    if n == 0 or degrees.sum() == 0:
        return 0.0
    index = np.arange(1, n + 1)
    return float(
        (2.0 * (index * degrees).sum() / (n * degrees.sum())) - (n + 1) / n
    )


def homophily(graph: Graph) -> Optional[float]:
    """Fraction of edges joining same-label endpoints (None unlabelled)."""
    if graph.labels is None:
        return None
    edges = graph.edge_list()
    if edges.shape[0] == 0:
        return None
    same = graph.labels[edges[:, 0]] == graph.labels[edges[:, 1]]
    return float(same.mean())


def compute_stats(graph: Graph) -> GraphStats:
    """Full statistics summary of a graph."""
    degrees = graph.degrees
    if graph.num_vertices == 0:
        raise GraphError("cannot summarise an empty graph")
    p50, p90, p99 = np.percentile(degrees, [50, 90, 99])
    # One float64 conversion shared by both tail statistics (each helper
    # used to convert the full degree array separately; ``asarray`` on a
    # float64 input is a no-copy view, so the values are unchanged).
    degrees64 = degrees.astype(np.float64)
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        average_degree=graph.average_degree,
        max_degree=int(degrees.max()) if degrees.size else 0,
        degree_p50=float(p50),
        degree_p90=float(p90),
        degree_p99=float(p99),
        density=graph.density,
        powerlaw_alpha=powerlaw_alpha_mle(degrees64),
        homophily=homophily(graph),
        degree_gini=degree_gini(degrees64),
    )
