"""Oracles for the GNN passes: the serial GCN and GraphSAGE forward/backward.

Each layer of the GCN computes ``H_l = act( A_hat @ C_l )`` with
``C_l = H_{l-1} @ W_l`` (Combination then Aggregation, Eq. 1–2 of the
paper).  The PIM twist: the Aggregation stage reads combination outputs
*from the crossbars*, so vertices whose rows were not rewritten this epoch
contribute **stale** combination outputs.  :class:`StaleFeatureStore`
models exactly that, and the backward pass treats stale rows as constants
(no gradient flows through them) — matching what the hardware computes.
GraphSAGE applies the same staleness to its mean-aggregation source.

The stacked ``[R, ...]`` models in :mod:`repro.gcn.batched` are the one
forward/backward ``src/`` runs; every replica must match these passes bit
for bit (``tests/gcn/test_batched_equivalence.py``, and through the
serial trainers in ``tests/oracles/trainers.py`` and
``tests/oracles/split_harness.py``).  The passes take the model built by
:class:`repro.gcn.model.GCN` or :class:`repro.gcn.sage.GraphSAGE`, read
its ``params`` and draw analog noise from its ``_rng`` (the model
stream) in the serial order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.losses import softmax
from repro.gcn.model import GCN
from repro.gcn.sage import GraphSAGE
from repro.graphs.graph import Graph

Params = Dict[str, np.ndarray]


class StaleFeatureStore:
    """Crossbar-resident combination outputs, refreshed selectively.

    One buffer per layer.  ``refresh(layer, values, vertices)`` overwrites
    the given rows (a vertex-update round); ``read(layer)`` returns the
    resident matrix the Aggregation stage actually multiplies.
    """

    def __init__(self, num_layers: int) -> None:
        if num_layers < 1:
            raise TrainingError("num_layers must be >= 1")
        self._buffers: List[Optional[np.ndarray]] = [None] * num_layers

    def refresh(
        self,
        layer: int,
        values: np.ndarray,
        vertices: Optional[np.ndarray] = None,
    ) -> None:
        """Write rows onto the crossbar-resident buffer.

        ``vertices=None`` refreshes every row (a full update round).  The
        first refresh of a layer is always full — the hardware must program
        the crossbars before it can aggregate at all.
        """
        if self._buffers[layer] is None or vertices is None:
            self._buffers[layer] = np.array(values, dtype=np.float32)
            return
        buffer = self._buffers[layer]
        if buffer.shape != values.shape:
            raise TrainingError("shape changed between refreshes")
        buffer[vertices] = values[vertices]

    def read(self, layer: int) -> np.ndarray:
        """The resident matrix (raises if never written)."""
        buffer = self._buffers[layer]
        if buffer is None:
            raise TrainingError(f"layer {layer} buffer never refreshed")
        return buffer


def cross_entropy_loss(
    logits: np.ndarray,
    labels: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise TrainingError("logits must be (n, classes); labels (n,)")
    if logits.shape[0] == 0:
        raise TrainingError("empty batch")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise TrainingError("labels out of range of logit columns")
    probs = softmax(logits)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(np.float32)


def _checked_features(model, graph: Graph, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float32)
    d_in = model.layer_dims[0][0]
    if features.shape != (graph.num_vertices, d_in):
        raise TrainingError(
            f"features must be ({graph.num_vertices}, "
            f"{d_in}), got {features.shape}"
        )
    return features


def gcn_forward_reference(
    model: GCN,
    graph: Graph,
    features: np.ndarray,
    store: Optional[StaleFeatureStore] = None,
    updated: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, dict]:
    """Forward pass; returns (output embeddings/logits, cache).

    With ``store`` given, each layer's combination output is written to
    the store only for ``updated`` vertices (None = all); aggregation
    then reads the resident (possibly stale) matrix.
    """
    features = _checked_features(model, graph, features)
    cache: dict = {"inputs": [], "combined": [], "masks": [], "fresh": []}
    hidden = features
    for i in range(model.num_layers):
        cache["inputs"].append(hidden)
        combined = hidden @ model.params[f"W{i}"]
        if store is not None:
            store.refresh(i, combined, updated)
            resident = store.read(i)
            if updated is None:
                fresh_mask = None  # every row fresh this round
            else:
                fresh_mask = np.zeros(graph.num_vertices, dtype=bool)
                fresh_mask[updated] = True
            effective = resident
        else:
            fresh_mask = None
            effective = combined
        cache["combined"].append(combined)
        cache["fresh"].append(fresh_mask)
        aggregated = graph.normalized_adjacency_matmul(effective)
        if model.analog_noise_sigma > 0:
            # Analog MVM error: the hardware is noisy at train AND
            # eval time.
            aggregated = aggregated * model._rng.normal(
                1.0, model.analog_noise_sigma, size=aggregated.shape,
            ).astype(np.float32)
        if i < model.num_layers - 1:
            mask = aggregated > 0
            hidden = aggregated * mask
            cache["masks"].append(mask)
        else:
            hidden = aggregated
            cache["masks"].append(None)
    return hidden, cache


def gcn_backward_reference(
    model: GCN,
    graph: Graph,
    cache: dict,
    grad_output: np.ndarray,
) -> Params:
    """Backward pass; returns gradients for every weight matrix.

    Stale combination rows are constants on the crossbars, so no
    gradient flows through them (their ``fresh`` mask zeroes the
    upstream gradient).
    """
    grads: Params = {}
    grad = np.asarray(grad_output, dtype=np.float32)
    for i in range(model.num_layers - 1, -1, -1):
        mask = cache["masks"][i]
        if mask is not None:
            grad = grad * mask
        # Through aggregation: A_hat is symmetric.
        grad_combined = graph.normalized_adjacency_matmul(grad)
        fresh = cache["fresh"][i]
        if fresh is not None:  # stale rows are crossbar constants
            grad_combined = grad_combined * fresh[:, None]
        grads[f"W{i}"] = cache["inputs"][i].T @ grad_combined
        if i > 0:
            grad = grad_combined @ model.params[f"W{i}"].T
    return grads


def sage_forward_reference(
    model: GraphSAGE,
    graph: Graph,
    features: np.ndarray,
    store: Optional[StaleFeatureStore] = None,
    updated: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, dict]:
    """Forward pass; returns (output, cache) like the GCN's.

    ``H_l = act( H_{l-1} @ W_self  +  mean_agg(H_resident) @ W_neigh )``:
    the store holds each layer's *input*, the aggregation source.
    """
    features = _checked_features(model, graph, features)
    num_layers = len(model.layer_dims)
    cache: dict = {"inputs": [], "aggregated": [], "fresh": [], "masks": []}
    hidden = features
    for i in range(num_layers):
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
            hidden @ model.params[f"W{i}_self"]
            + aggregated @ model.params[f"W{i}_neigh"]
        )
        if i < num_layers - 1:
            mask = out > 0
            out = out * mask
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
        hidden = out
    return hidden, cache


def sage_backward_reference(
    model: GraphSAGE,
    graph: Graph,
    cache: dict,
    grad_output: np.ndarray,
) -> Params:
    """Backward pass; stale resident rows are constants."""
    grads: Params = {}
    grad = np.asarray(grad_output, dtype=np.float32)
    for i in range(len(model.layer_dims) - 1, -1, -1):
        mask = cache["masks"][i]
        if mask is not None:
            grad = grad * mask
        hidden = cache["inputs"][i]
        aggregated = cache["aggregated"][i]
        grads[f"W{i}_self"] = hidden.T @ grad
        grads[f"W{i}_neigh"] = aggregated.T @ grad
        if i > 0:
            grad_hidden = grad @ model.params[f"W{i}_self"].T
            # Through mean aggregation: (D^-1 A)^T g = A^T D^-1 g.
            grad_agg = grad @ model.params[f"W{i}_neigh"].T
            scale = np.where(
                graph.degrees > 0,
                1.0 / np.maximum(graph.degrees, 1), 0.0,
            ).astype(np.float32)
            back = graph.adjacency_matmul(grad_agg * scale[:, None])
            back = back * cache["fresh"][i][:, None]
            grad = grad_hidden + back
    return grads


#: Each family's serial (forward, backward) pair.
PASSES = {
    GCN: (gcn_forward_reference, gcn_backward_reference),
    GraphSAGE: (sage_forward_reference, sage_backward_reference),
}
