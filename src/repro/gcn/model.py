"""Numpy GCN with crossbar-staleness-aware forward/backward passes.

Each layer computes ``H_l = act( A_hat @ C_l )`` with
``C_l = H_{l-1} @ W_l`` (Combination then Aggregation, Eq. 1–2 of the
paper).  The PIM twist: the Aggregation stage reads combination outputs
*from the crossbars*, so vertices whose rows were not rewritten this epoch
contribute **stale** combination outputs.  :class:`StaleFeatureStore`
models exactly that, and the backward pass treats stale rows as constants
(no gradient flows through them) — matching what the hardware computes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
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


class GCN:
    """Multi-layer GCN with explicit forward/backward on numpy arrays.

    Parameters
    ----------
    layer_dims:
        Per-layer ``(d_in, d_out)``; consecutive dims must chain.
    dropout:
        Drop probability applied to hidden activations during training.
    random_state:
        Seed for weight init, dropout masks, and analog noise.
    analog_noise_sigma:
        Relative Gaussian noise applied to every aggregation output,
        modelling ReRAM conductance variation and ADC error (the
        device-variation study).  ``0.0`` is ideal hardware.
    """

    def __init__(
        self,
        layer_dims: Sequence[Tuple[int, int]],
        dropout: float = 0.0,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if not layer_dims:
            raise TrainingError("need at least one layer")
        for (_, prev_out), (next_in, _) in zip(layer_dims[:-1], layer_dims[1:]):
            if prev_out != next_in:
                raise TrainingError("layer dimensions do not chain")
        if not 0.0 <= dropout < 1.0:
            raise TrainingError("dropout must be in [0, 1)")
        if analog_noise_sigma < 0:
            raise TrainingError("analog_noise_sigma must be >= 0")
        self._dims = [tuple(d) for d in layer_dims]
        self._dropout = dropout
        self._analog_noise = analog_noise_sigma
        self._rng = np.random.default_rng(random_state)
        # Reused scratch for dropout draws (one buffer per hidden shape);
        # drawing into it consumes the same RNG stream as a fresh array.
        self._dropout_scratch: Dict[Tuple[int, int], np.ndarray] = {}
        self.params: Params = {}
        for i, (d_in, d_out) in enumerate(self._dims):
            scale = np.sqrt(2.0 / (d_in + d_out))
            self.params[f"W{i}"] = self._rng.normal(
                0.0, scale, size=(d_in, d_out),
            ).astype(np.float32)

    @property
    def num_layers(self) -> int:
        """Model depth L."""
        return len(self._dims)

    @property
    def dropout(self) -> float:
        """Hidden-activation drop probability."""
        return self._dropout

    @property
    def analog_noise_sigma(self) -> float:
        """Relative analog MVM noise (0.0 = ideal hardware)."""
        return self._analog_noise

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
        """Forward pass; returns (output embeddings/logits, cache).

        With ``store`` given, each layer's combination output is written to
        the store only for ``updated`` vertices (None = all); aggregation
        then reads the resident (possibly stale) matrix.
        """
        features = np.asarray(features, dtype=np.float32)
        if features.shape != (graph.num_vertices, self._dims[0][0]):
            raise TrainingError(
                f"features must be ({graph.num_vertices}, "
                f"{self._dims[0][0]}), got {features.shape}"
            )
        cache: dict = {"inputs": [], "combined": [], "masks": [],
                       "fresh": [], "dropout": []}
        hidden = features
        for i in range(self.num_layers):
            cache["inputs"].append(hidden)
            combined = hidden @ self.params[f"W{i}"]
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
            if self._analog_noise > 0:
                # Analog MVM error: the hardware is noisy at train AND
                # eval time, so noise applies regardless of `training`.
                aggregated = aggregated * self._rng.normal(
                    1.0, self._analog_noise, size=aggregated.shape,
                ).astype(np.float32)
            if i < self.num_layers - 1:
                mask = aggregated > 0
                hidden = aggregated * mask
                cache["masks"].append(mask)
                if training and self._dropout > 0:
                    scratch = self._dropout_scratch.get(hidden.shape)
                    if scratch is None:
                        scratch = np.empty(hidden.shape, dtype=np.float64)
                        self._dropout_scratch[hidden.shape] = scratch
                    self._rng.random(out=scratch)
                    keep = (scratch >= self._dropout).astype(np.float32)
                    keep /= (1.0 - self._dropout)
                    hidden = hidden * keep
                    cache["dropout"].append(keep)
                else:
                    cache["dropout"].append(None)
            else:
                hidden = aggregated
                cache["masks"].append(None)
                cache["dropout"].append(None)
        return hidden, cache

    def backward(
        self,
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
        for i in range(self.num_layers - 1, -1, -1):
            keep = cache["dropout"][i]
            if keep is not None:
                grad = grad * keep
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
                grad = grad_combined @ self.params[f"W{i}"].T
        return grads
