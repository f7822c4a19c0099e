"""GraphSAGE (mean aggregator) with the same crossbar-staleness semantics.

The paper evaluates "the most popular GCN models"; GraphSAGE is the
natural second family because its stage structure maps to the same PIM
pipeline — per layer, a Combination over *two* weight matrices (self and
neighbour paths) and a mean Aggregation over the crossbar-resident
previous-layer features:

    ``H_l = act( H_{l-1} @ W_self  +  mean_agg(H_resident) @ W_neigh )``

Staleness applies to the aggregation source exactly as in
:class:`repro.gcn.model.GCN`: non-updated vertices contribute their
crossbar-resident (stale) rows, and the backward pass treats those rows
as constants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.model import StaleFeatureStore
from repro.graphs.graph import Graph

Params = Dict[str, np.ndarray]


class GraphSAGE:
    """Mean-aggregator GraphSAGE with explicit forward/backward."""

    def __init__(
        self,
        layer_dims: Sequence[Tuple[int, int]],
        dropout: float = 0.0,
        random_state: int = 0,
    ) -> None:
        if not layer_dims:
            raise TrainingError("need at least one layer")
        for (_, prev_out), (next_in, _) in zip(layer_dims[:-1], layer_dims[1:]):
            if prev_out != next_in:
                raise TrainingError("layer dimensions do not chain")
        if not 0.0 <= dropout < 1.0:
            raise TrainingError("dropout must be in [0, 1)")
        self._dims = [tuple(d) for d in layer_dims]
        self._dropout = dropout
        self._rng = np.random.default_rng(random_state)
        self.params: Params = {}
        for i, (d_in, d_out) in enumerate(self._dims):
            scale = np.sqrt(2.0 / (d_in + d_out))
            for role in ("self", "neigh"):
                self.params[f"W{i}_{role}"] = self._rng.normal(
                    0.0, scale, size=(d_in, d_out),
                ).astype(np.float32)

    @property
    def num_layers(self) -> int:
        """Model depth."""
        return len(self._dims)

    @property
    def dropout(self) -> float:
        """Hidden-activation drop probability."""
        return self._dropout

    @property
    def layer_dims(self) -> List[Tuple[int, int]]:
        """Per-layer (d_in, d_out)."""
        return list(self._dims)

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: Graph,
        features: np.ndarray,
        store: Optional[StaleFeatureStore] = None,
        updated: Optional[np.ndarray] = None,
        training: bool = False,
    ) -> Tuple[np.ndarray, dict]:
        """Forward pass; returns (output, cache) like the GCN."""
        features = np.asarray(features, dtype=np.float32)
        if features.shape != (graph.num_vertices, self._dims[0][0]):
            raise TrainingError(
                f"features must be ({graph.num_vertices}, "
                f"{self._dims[0][0]}), got {features.shape}"
            )
        cache: dict = {"inputs": [], "aggregated": [], "fresh": [],
                       "masks": [], "dropout": []}
        hidden = features
        for i in range(self.num_layers):
            cache["inputs"].append(hidden)
            if store is not None:
                store.refresh(i, hidden, updated)
                resident = store.read(i)
                fresh = np.zeros(graph.num_vertices, dtype=bool)
                if updated is None:
                    fresh[:] = True
                else:
                    fresh[updated] = True
            else:
                resident = hidden
                fresh = np.ones(graph.num_vertices, dtype=bool)
            cache["fresh"].append(fresh)
            aggregated = graph.mean_adjacency_matmul(resident)
            cache["aggregated"].append(aggregated)
            out = (
                hidden @ self.params[f"W{i}_self"]
                + aggregated @ self.params[f"W{i}_neigh"]
            )
            if i < self.num_layers - 1:
                mask = out > 0
                out = out * mask
                cache["masks"].append(mask)
                if training and self._dropout > 0:
                    keep = (
                        self._rng.random(out.shape) >= self._dropout
                    ).astype(np.float32) / (1.0 - self._dropout)
                    out = out * keep
                    cache["dropout"].append(keep)
                else:
                    cache["dropout"].append(None)
            else:
                cache["masks"].append(None)
                cache["dropout"].append(None)
            hidden = out
        return hidden, cache

    def backward(
        self,
        graph: Graph,
        cache: dict,
        grad_output: np.ndarray,
    ) -> Params:
        """Backward pass; stale resident rows are constants."""
        grads: Params = {}
        grad = np.asarray(grad_output, dtype=np.float32)
        for i in range(self.num_layers - 1, -1, -1):
            keep = cache["dropout"][i]
            if keep is not None:
                grad = grad * keep
            mask = cache["masks"][i]
            if mask is not None:
                grad = grad * mask
            hidden = cache["inputs"][i]
            aggregated = cache["aggregated"][i]
            grads[f"W{i}_self"] = hidden.T @ grad
            grads[f"W{i}_neigh"] = aggregated.T @ grad
            if i > 0:
                grad_hidden = grad @ self.params[f"W{i}_self"].T
                # Through mean aggregation: (D^-1 A)^T g = A^T D^-1 g.
                grad_agg = grad @ self.params[f"W{i}_neigh"].T
                scale = np.where(
                    graph.degrees > 0,
                    1.0 / np.maximum(graph.degrees, 1), 0.0,
                ).astype(np.float32)
                back = graph.adjacency_matmul(grad_agg * scale[:, None])
                back = back * cache["fresh"][i][:, None]
                grad = grad_hidden + back
        return grads
