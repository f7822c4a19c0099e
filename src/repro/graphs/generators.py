"""Random graph generators used to synthesise the paper's datasets.

Three families cover the statistics GoPIM's mechanisms consume:

* :func:`powerlaw_cluster_graph` — preferential attachment; produces the
  heavy-tailed degree skew that motivates interleaved mapping (Fig. 6/7);
* :func:`sbm_graph` — stochastic block model with community-correlated
  features/labels, used for node-classification accuracy experiments;
* :func:`erdos_renyi_graph` — the flat-degree control case.

Every generator takes an explicit ``numpy.random.Generator`` (or seed) so
experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph, sorted_unique

RandomState = Union[int, np.random.Generator, None]


def _rng(random_state: RandomState) -> np.random.Generator:
    """Coerce an int seed / Generator / None into a Generator."""
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def erdos_renyi_graph(
    num_vertices: int,
    avg_degree: float,
    random_state: RandomState = None,
    name: str = "erdos-renyi",
) -> Graph:
    """G(n, m) random graph with roughly ``avg_degree`` mean degree."""
    if num_vertices < 1:
        raise GraphError("num_vertices must be >= 1")
    if avg_degree < 0:
        raise GraphError("avg_degree must be non-negative")
    rng = _rng(random_state)
    target_edges = int(round(num_vertices * avg_degree / 2))
    max_edges = num_vertices * (num_vertices - 1) // 2
    target_edges = min(target_edges, max_edges)
    src = rng.integers(0, num_vertices, size=2 * target_edges + 16)
    dst = rng.integers(0, num_vertices, size=2 * target_edges + 16)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)[:target_edges]
    return Graph.from_edges(num_vertices, edges, name=name)


def powerlaw_cluster_graph(
    num_vertices: int,
    avg_degree: float,
    random_state: RandomState = None,
    name: str = "powerlaw",
    triad_prob: float = 0.25,
) -> Graph:
    """Preferential-attachment graph with heavy-tailed degrees.

    A Holme-Kim style process: each new vertex attaches ``m`` edges, each
    either preferentially (probability proportional to current degree) or,
    with probability ``triad_prob``, to a random current neighbour of the
    previous endpoint (triad formation, which raises clustering).  ``m`` is
    derived from ``avg_degree`` since each edge contributes 2 to the total
    degree.  Attachment draws are O(1) via the repeated-endpoint list; triad
    draws are O(1) via per-vertex adjacency lists.
    """
    if num_vertices < 2:
        raise GraphError("num_vertices must be >= 2")
    if avg_degree <= 0:
        raise GraphError("avg_degree must be positive")
    if not 0.0 <= triad_prob <= 1.0:
        raise GraphError("triad_prob must be in [0, 1]")
    rng = _rng(random_state)
    m = max(1, int(round(avg_degree / 2)))
    m = min(m, num_vertices - 1)

    adjacency: List[List[int]] = [[] for _ in range(num_vertices)]
    repeated: List[int] = []
    edges: List[tuple] = []

    def _add_edge(u: int, v: int) -> None:
        edges.append((u, v))
        adjacency[u].append(v)
        adjacency[v].append(u)
        repeated.extend((u, v))

    seed_size = m + 1
    for v in range(seed_size):
        for u in range(v):
            _add_edge(u, v)

    for v in range(seed_size, num_vertices):
        targets: set = set()
        last_target: Optional[int] = None
        attempts = 0
        while len(targets) < m and attempts < 50 * m:
            attempts += 1
            use_triad = last_target is not None and rng.random() < triad_prob
            if use_triad:
                pool = adjacency[last_target]
                candidate = int(pool[rng.integers(0, len(pool))]) if pool else None
            else:
                candidate = int(repeated[rng.integers(0, len(repeated))])
            if candidate is None or candidate == v or candidate in targets:
                last_target = None
                continue
            targets.add(candidate)
            last_target = candidate
        for t in targets:
            _add_edge(t, v)

    return Graph.from_edges(num_vertices, edges, name=name)


def sbm_graph(
    num_vertices: int,
    num_communities: int,
    avg_degree: float,
    random_state: RandomState = None,
    name: str = "sbm",
    intra_ratio: float = 0.8,
    feature_dim: int = 0,
    feature_noise: float = 1.0,
) -> Graph:
    """Stochastic block model with optional community-correlated features.

    ``intra_ratio`` of the edge mass stays inside a community.  When
    ``feature_dim > 0`` each community gets a random centroid and vertices
    get ``centroid + noise`` features, and vertex labels are community ids —
    this is what makes node-classification accuracy a meaningful signal for
    the ISU staleness experiments.  Edge sampling is fully vectorised.
    """
    if num_vertices < num_communities or num_communities < 1:
        raise GraphError("need num_vertices >= num_communities >= 1")
    if not 0.0 <= intra_ratio <= 1.0:
        raise GraphError("intra_ratio must be in [0, 1]")
    if avg_degree < 0:
        raise GraphError("avg_degree must be non-negative")
    rng = _rng(random_state)
    labels = rng.integers(0, num_communities, size=num_vertices)
    members = [np.flatnonzero(labels == c) for c in range(num_communities)]
    sizes = np.array([m.size for m in members], dtype=np.float64)

    target_edges = int(round(num_vertices * avg_degree / 2))
    num_intra = int(round(target_edges * intra_ratio))
    num_inter = target_edges - num_intra

    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []

    usable = sizes >= 2
    if num_intra > 0 and usable.any():
        # Distribute intra edges across communities proportional to size^2,
        # matching the uniform-pair probability mass inside each block.
        weights = np.where(usable, sizes ** 2, 0.0)
        weights /= weights.sum()
        counts = rng.multinomial(num_intra, weights)
        for community, count in zip(members, counts):
            if count == 0:
                continue
            src_parts.append(community[rng.integers(0, community.size, size=count)])
            dst_parts.append(community[rng.integers(0, community.size, size=count)])
        num_inter += num_intra - int(counts.sum())

    if num_inter > 0:
        src_parts.append(rng.integers(0, num_vertices, size=num_inter))
        dst_parts.append(rng.integers(0, num_vertices, size=num_inter))

    if src_parts:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        keep = src != dst
        edges = np.stack([src[keep], dst[keep]], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)

    features = None
    if feature_dim > 0:
        centroids = rng.normal(0.0, 1.0, size=(num_communities, feature_dim))
        noise = rng.normal(0.0, feature_noise, size=(num_vertices, feature_dim))
        features = (centroids[labels] + noise).astype(np.float32)

    return Graph.from_edges(
        num_vertices, edges, features=features, labels=labels, name=name,
    )


def dc_sbm_graph(
    num_vertices: int,
    num_communities: int,
    avg_degree: float,
    random_state: RandomState = None,
    name: str = "dc-sbm",
    intra_ratio: float = 0.8,
    feature_dim: int = 0,
    feature_noise: float = 1.0,
    powerlaw_exponent: float = 2.5,
) -> Graph:
    """Degree-corrected stochastic block model.

    Combines the two graph properties GoPIM's evaluation depends on:
    community structure (labels for node classification) and heavy-tailed
    degrees (the skew that motivates interleaved mapping).  Every vertex
    draws a Pareto weight with tail exponent ``powerlaw_exponent``; edge
    endpoints are sampled proportionally to weight, within the community for
    the intra fraction and globally otherwise.
    """
    if num_vertices < num_communities or num_communities < 1:
        raise GraphError("need num_vertices >= num_communities >= 1")
    if not 0.0 <= intra_ratio <= 1.0:
        raise GraphError("intra_ratio must be in [0, 1]")
    if avg_degree < 0:
        raise GraphError("avg_degree must be non-negative")
    if powerlaw_exponent <= 1.0:
        raise GraphError("powerlaw_exponent must be > 1")
    rng = _rng(random_state)
    labels = rng.integers(0, num_communities, size=num_vertices)
    # Pareto(alpha) weights: heavier tail for smaller alpha.
    weights = (1.0 + rng.pareto(powerlaw_exponent - 1.0, size=num_vertices))
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
