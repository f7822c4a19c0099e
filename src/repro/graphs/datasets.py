"""Synthetic stand-ins for the paper's seven datasets (Table III + Cora).

The paper evaluates on six OGB datasets plus Cora via PyTorch-Geometric.
Neither OGB downloads nor PyG are available offline, so each dataset is
synthesised to match the statistics GoPIM's mechanisms consume:

* **degree skew** — drives interleaved mapping / ISU (degree-corrected SBM
  with a power-law weight tail);
* **average degree / density class** — drives the adaptive threshold
  (dense if avg degree > 8, else sparse) and ReFlip's reload penalty;
* **feature dimension and model shape** (Table IV) — drive crossbars per
  replica and therefore the allocator's headroom;
* **relative vertex-count ordering** — drives how many replicas fit
  (ddi smallest ... products largest).

Vertex counts are scaled down (``paper_vertices`` to ``sim_vertices``) so
experiments run on a laptop; every latency in the pipeline model scales
linearly in workload size, so *relative* results (speedups, idle
fractions, crossovers) are preserved.  The applied scale is recorded on
the spec and surfaced in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.generators import RandomState, _rng, dc_sbm_graph
from repro.graphs.graph import Graph
from repro.perf import cache_key
from repro.perf import profile


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one paper dataset and its GCN model config.

    ``paper_*`` fields quote Table III; ``sim_*`` fields are the synthetic
    scale this reproduction generates at.  Model fields quote Table IV.
    """

    name: str
    task: str  # "link" or "node"
    paper_vertices: int
    paper_edges: int
    paper_avg_degree: float
    feature_dim: int
    sim_vertices: int
    sim_avg_degree: float
    num_communities: int
    # Table IV model architecture.
    num_layers: int
    in_channels: int
    hidden_channels: int
    out_channels: int

    @property
    def is_dense(self) -> bool:
        """Paper's density class: dense iff average degree > 8."""
        return self.paper_avg_degree > 8.0

    @property
    def selective_threshold(self) -> float:
        """Adaptive theta from Section VI-C: 50% dense, 80% sparse."""
        return 0.5 if self.is_dense else 0.8


# Table III statistics with laptop-scale simulated sizes.  Simulated average
# degrees are compressed with the same ordering as the paper's (and the same
# side of the dense/sparse threshold at 8).
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "ddi": DatasetSpec(
        name="ddi", task="link",
        paper_vertices=4267, paper_edges=1334889, paper_avg_degree=500.5,
        feature_dim=256, sim_vertices=1024, sim_avg_degree=64.0,
        num_communities=8,
        num_layers=2,
        in_channels=256, hidden_channels=256, out_channels=256,
    ),
    "collab": DatasetSpec(
        name="collab", task="link",
        paper_vertices=235868, paper_edges=1285465, paper_avg_degree=8.2,
        feature_dim=128, sim_vertices=2048, sim_avg_degree=8.2,
        num_communities=16,
        num_layers=3,
        in_channels=128, hidden_channels=256, out_channels=256,
    ),
    "ppa": DatasetSpec(
        name="ppa", task="link",
        paper_vertices=576289, paper_edges=30326273, paper_avg_degree=73.7,
        feature_dim=58, sim_vertices=3072, sim_avg_degree=36.0,
        num_communities=16,
        num_layers=3,
        in_channels=58, hidden_channels=256, out_channels=256,
    ),
    "proteins": DatasetSpec(
        name="proteins", task="node",
        paper_vertices=132534, paper_edges=39561252, paper_avg_degree=597.0,
        feature_dim=8, sim_vertices=1536, sim_avg_degree=72.0,
        num_communities=8,
        num_layers=3,
        in_channels=8, hidden_channels=256, out_channels=112,
    ),
    "arxiv": DatasetSpec(
        name="arxiv", task="node",
        paper_vertices=169343, paper_edges=1166243, paper_avg_degree=13.7,
        feature_dim=128, sim_vertices=1792, sim_avg_degree=13.7,
        num_communities=16,
        num_layers=3,
        in_channels=128, hidden_channels=256, out_channels=40,
    ),
    "products": DatasetSpec(
        name="products", task="node",
        paper_vertices=2449029, paper_edges=61859140, paper_avg_degree=50.5,
        feature_dim=100, sim_vertices=4096, sim_avg_degree=28.0,
        num_communities=24,
        num_layers=3,
        in_channels=100, hidden_channels=256, out_channels=47,
    ),
    "cora": DatasetSpec(
        name="cora", task="node",
        paper_vertices=2708, paper_edges=10556, paper_avg_degree=3.9,
        feature_dim=256, sim_vertices=678, sim_avg_degree=3.9,
        num_communities=7,
        num_layers=3,
        in_channels=256, hidden_channels=256, out_channels=256,
    ),
}

# The five datasets the headline Figure 13 sweeps (Section VII-B).
OVERALL_EVAL_DATASETS: Tuple[str, ...] = (
    "ddi", "collab", "ppa", "proteins", "arxiv",
)


def dataset_names() -> Tuple[str, ...]:
    """Names of all available datasets, in Table III order."""
    return tuple(DATASET_SPECS)


def get_spec(name: str) -> DatasetSpec:
    """Fetch a dataset spec by name (case-insensitive)."""
    key = name.lower()
    if key not in DATASET_SPECS:
        raise GraphError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_SPECS)}"
        )
    return DATASET_SPECS[key]


def relabel_by_noisy_degree(
    graph: Graph,
    random_state: RandomState = 0,
    noise_sigma: float = 0.5,
) -> Graph:
    """Renumber vertices so ids correlate with degree, with noise.

    Real OGB graphs store vertices in an order strongly correlated with
    degree/insertion history, which is exactly why index-based mapping
    yields the skewed per-crossbar degree profile of Fig. 6.  Synthetic
    generators assign ids randomly, so this post-pass restores the
    correlation: vertices are sorted by ``degree * lognormal(0, sigma)``
    descending and renumbered in that order.
    """
    rng = _rng(random_state)
    noise = rng.lognormal(0.0, noise_sigma, size=graph.num_vertices)
    key = (graph.degrees + 1.0) * noise
    order = np.argsort(-key, kind="stable")
    # order[i] = old id that becomes new id i  ->  remap[old] = new.
    remap = np.empty(graph.num_vertices, dtype=np.int64)
    remap[order] = np.arange(graph.num_vertices)
    edges = graph.edge_list()
    if edges.size:
        edges = remap[edges]
    features = None if graph.features is None else graph.features[order]
    labels = None if graph.labels is None else graph.labels[order]
    return Graph.from_edges(
        graph.num_vertices, edges, features=features, labels=labels,
        name=graph.name,
    )


def load_dataset(
    name: str,
    random_state: RandomState = 0,
    scale: float = 1.0,
) -> Graph:
    """Generate the synthetic stand-in graph for a paper dataset.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    random_state:
        Seed or generator; the default makes repeated loads identical.
    scale:
        Extra multiplier on the simulated vertex count (e.g. 0.25 for a
        quick smoke run, 2.0 for a bigger sweep).
    """
    spec = get_spec(name)
    if scale <= 0:
        raise GraphError("scale must be positive")
    if isinstance(random_state, (int, np.integer)):
        # Imported here: the run context sits above the graph layer.
        from repro.runtime.session import current_session

        # Seeded loads are pure functions of (name, seed, scale): memoise
        # through the artifact cache so repeated experiments share one
        # generated instance (graphs are immutable).
        key = cache_key(spec.name, int(random_state), float(scale))
        return current_session().cache.get_or_compute(
            "datasets", key,
            lambda: _generate_dataset_graph(spec, random_state, scale),
        )
    return _generate_dataset_graph(spec, random_state, scale)


@profile.phase(profile.PHASE_DATASET)
def _generate_dataset_graph(
    spec: DatasetSpec,
    random_state: RandomState,
    scale: float,
) -> Graph:
    num_vertices = max(spec.num_communities * 2,
                       int(round(spec.sim_vertices * scale)))
    rng = _rng(random_state)
    # intra_ratio / feature_noise put node-classification accuracy in a
    # sensitive region (~0.75-0.95 at convergence) so the theta/staleness/
    # variation experiments can actually measure degradation; fully
    # separable features would pin every accuracy at 1.0.
    graph = dc_sbm_graph(
        num_vertices=num_vertices,
        num_communities=spec.num_communities,
        avg_degree=spec.sim_avg_degree,
        random_state=rng,
        name=spec.name,
        intra_ratio=0.55,
        feature_dim=spec.feature_dim,
        feature_noise=8.0,
    )
    return relabel_by_noisy_degree(graph, random_state=rng)
