"""The random graph generator that synthesises the paper's datasets.

:func:`dc_sbm_graph` (a degree-corrected stochastic block model) gives
both statistics GoPIM's mechanisms consume: community-correlated
features and labels for the node-classification accuracy experiments,
and the heavy-tailed degree skew that motivates interleaved mapping
(Fig. 6/7).  It takes an explicit ``numpy.random.Generator`` (or seed)
so experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph, sorted_unique

RandomState = Union[int, np.random.Generator, None]

#: Tail exponent of the per-vertex Pareto degree weights.
POWERLAW_EXPONENT = 2.5


def _rng(random_state: RandomState) -> np.random.Generator:
    """Coerce an int seed / Generator / None into a Generator."""
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def dc_sbm_graph(
    num_vertices: int,
    num_communities: int,
    avg_degree: float,
    random_state: RandomState = None,
    name: str = "dc-sbm",
    intra_ratio: float = 0.8,
    feature_dim: int = 0,
    feature_noise: float = 1.0,
) -> Graph:
    """Degree-corrected stochastic block model.

    Combines the two graph properties GoPIM's evaluation depends on:
    community structure (labels for node classification) and heavy-tailed
    degrees (the skew that motivates interleaved mapping).  Every vertex
    draws a Pareto weight with tail exponent :data:`POWERLAW_EXPONENT`; edge
    endpoints are sampled proportionally to weight, within the community for
    the intra fraction and globally otherwise.
    """
    if num_vertices < num_communities or num_communities < 1:
        raise GraphError("need num_vertices >= num_communities >= 1")
    if not 0.0 <= intra_ratio <= 1.0:
        raise GraphError("intra_ratio must be in [0, 1]")
    if avg_degree < 0:
        raise GraphError("avg_degree must be non-negative")
    rng = _rng(random_state)
    labels = rng.integers(0, num_communities, size=num_vertices)
    # Pareto(alpha) weights: heavier tail for smaller alpha.
    weights = (1.0 + rng.pareto(POWERLAW_EXPONENT - 1.0, size=num_vertices))
    probs = weights / weights.sum()

    target_edges = int(round(num_vertices * avg_degree / 2))
    members = [np.flatnonzero(labels == c) for c in range(num_communities)]
    mass = np.array(
        [weights[m].sum() if m.size >= 2 else 0.0 for m in members]
    )
    locals_cache = [
        weights[m] / weights[m].sum() if m.size >= 2 else None
        for m in members
    ]

    def _draw(count: int) -> tuple:
        """Draw ``count`` endpoint pairs from the DC-SBM distribution."""
        num_intra = int(round(count * intra_ratio))
        num_inter = count - num_intra
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        if num_intra > 0 and mass.sum() > 0:
            counts = rng.multinomial(num_intra, mass / mass.sum())
            for community, local, c in zip(members, locals_cache, counts):
                if c == 0 or local is None:
                    continue
                src_parts.append(rng.choice(community, size=c, p=local))
                dst_parts.append(rng.choice(community, size=c, p=local))
            num_inter += num_intra - int(counts.sum())
        if num_inter > 0:
            src_parts.append(rng.choice(num_vertices, size=num_inter, p=probs))
            dst_parts.append(rng.choice(num_vertices, size=num_inter, p=probs))
        if not src_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(src_parts), np.concatenate(dst_parts)

    # Heavy-tailed weights produce many duplicate pairs; resample until the
    # deduplicated edge count reaches the target (bounded iterations).
    unique_keys = np.empty(0, dtype=np.int64)
    deficit = target_edges
    for _ in range(6):
        if deficit <= 0:
            break
        src, dst = _draw(int(deficit * 1.5) + 8)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keys = lo * np.int64(num_vertices) + hi
        unique_keys = sorted_unique(np.concatenate([unique_keys, keys]))
        deficit = target_edges - unique_keys.size
    if unique_keys.size > target_edges:
        unique_keys = rng.permutation(unique_keys)[:target_edges]
    edges = np.stack(
        [unique_keys // num_vertices, unique_keys % num_vertices], axis=1,
    )

    features = None
    if feature_dim > 0:
        centroids = rng.normal(0.0, 1.0, size=(num_communities, feature_dim))
        noise = rng.normal(0.0, feature_noise, size=(num_vertices, feature_dim))
        features = (centroids[labels] + noise).astype(np.float32)

    return Graph.from_edges(
        num_vertices, edges, features=features, labels=labels, name=name,
    )
