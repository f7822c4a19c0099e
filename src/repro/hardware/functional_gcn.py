"""Value-accurate GCN inference on crossbar hardware.

Runs a trained GCN's forward pass entirely through the functional engine:
Combination streams feature rows through weight-mapped crossbar grids,
Aggregation fires one wordline per edge against the feature-mapped grids
(Section II-B's mapping), and the degree normalisation that the GCN math
needs is folded into the streamed values — so results are comparable to
the software forward (:func:`repro.gcn.batched.infer`) bit-for-bit in the
ideal case, and degrade realistically when cell quantisation or read
noise is enabled.

This is the reproduction's NeuroSim-style *inference-on-hardware* mode:
slow (every edge is a crossbar activation) but fully observable, used by
tests to validate the analytic cost model's event counts and by the
device-variation study.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MappingError, TrainingError
from repro.gcn.model import GCN
from repro.graphs.graph import Graph
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.hardware.crossbar import CrossbarStats
from repro.hardware.engine import MappedMatrix, segment_leftfold_sum
from repro.perf import profile


class FunctionalGCN:
    """A trained GCN deployed on functional crossbar grids.

    Parameters
    ----------
    model:
        A (typically trained) :class:`repro.gcn.model.GCN`; its weight
        matrices are programmed onto crossbar grids at construction.
    config:
        Hardware configuration.
    quantize / read_noise_sigma:
        Forwarded to the crossbars (cell quantisation, analog noise).
    """

    def __init__(
        self,
        model: GCN,
        config: HardwareConfig = DEFAULT_CONFIG,
        quantize: bool = False,
        read_noise_sigma: float = 0.0,
        random_state: int = 0,
    ) -> None:
        self._model = model
        self._config = config
        self._weights: List[MappedMatrix] = []
        for i in range(model.num_layers):
            self._weights.append(MappedMatrix(
                model.params[f"W{i}"], config=config,
                quantize=quantize, read_noise_sigma=read_noise_sigma,
                random_state=random_state + i,
            ))
        self._quantize = quantize
        self._noise = read_noise_sigma
        self._seed = random_state
        self._feature_grids: List[Optional[MappedMatrix]] = (
            [None] * model.num_layers
        )
        self._phase_times: Dict[str, float] = {
            "combination": 0.0, "program": 0.0, "aggregation": 0.0,
        }

    @property
    def phase_times_s(self) -> Dict[str, float]:
        """Cumulative wall-clock seconds per forward phase (a copy)."""
        return dict(self._phase_times)

    @property
    def num_layers(self) -> int:
        """Model depth."""
        return self._model.num_layers

    # ------------------------------------------------------------------
    @profile.phase(profile.PHASE_FUNCTIONAL)
    def forward(self, graph: Graph, features: np.ndarray) -> np.ndarray:
        """Full forward pass on hardware; returns the output embeddings.

        Each layer: (1) Combination — stream the (normalised) feature rows
        through the weight grid; (2) write the combined rows onto a fresh
        feature grid (the vertex-update step the latency model charges);
        (3) Aggregation — one wordline activation per edge, plus the
        self-loop, with GCN's symmetric normalisation folded into the
        streamed row scaling.
        """
        features = np.asarray(features, dtype=np.float32)
        if features.shape[0] != graph.num_vertices:
            raise TrainingError("features must cover every vertex")
        inv_sqrt = (1.0 / np.sqrt(graph.degrees + 1.0)).astype(np.float32)

        hidden = features
        for layer in range(self.num_layers):
            d_in = self._model.layer_dims[layer][0]
            if hidden.shape[1] != d_in:
                raise TrainingError(
                    f"layer {layer} expects dim {d_in}, got {hidden.shape[1]}"
                )
            tick = time.perf_counter()
            combined = self._weights[layer].mvm_batch(hidden)
            # Fold D^-1/2 (source side) into the rows before programming.
            scaled = combined * inv_sqrt[:, None]
            tock = time.perf_counter()
            self._phase_times["combination"] += tock - tick
            grid = MappedMatrix(
                scaled, config=self._config, quantize=self._quantize,
                read_noise_sigma=self._noise,
                random_state=self._seed + 97 * (layer + 1),
            )
            self._feature_grids[layer] = grid
            tick = time.perf_counter()
            self._phase_times["program"] += tick - tock
            aggregated = self._aggregate(graph, grid, scaled)
            self._phase_times["aggregation"] += time.perf_counter() - tick
            # Destination-side D^-1/2.
            aggregated = aggregated * inv_sqrt[:, None]
            if layer < self.num_layers - 1:
                hidden = np.maximum(aggregated, 0.0)
            else:
                hidden = aggregated
        return hidden

    def _aggregate(
        self,
        graph: Graph,
        grid: MappedMatrix,
        resident_rows: np.ndarray,
    ) -> np.ndarray:
        """Neighbour + self sums via one batched grid read.

        One :meth:`MappedMatrix.read_rows` call covers every arc in CSR
        edge order — the order the per-edge one-hot MVM loop (the oracle
        in ``tests/oracles/functional.py``) fires its reads, so each
        crossbar consumes its seeded noise stream identically — and the
        gathered rows fold into per-vertex sums with the order-preserving
        segment fold, seeded with the resident row itself (the ``A + I``
        self loop).
        """
        rows = grid.read_rows(graph.indices)
        return segment_leftfold_sum(graph.indptr, rows, resident_rows)

    # ------------------------------------------------------------------
    def stats(self) -> CrossbarStats:
        """Merged event counters across every grid (weights + features)."""
        total = CrossbarStats()
        for grid in self._weights:
            total.merge(grid.stats())
        for grid in self._feature_grids:
            if grid is not None:
                total.merge(grid.stats())
        return total

    def total_crossbars(self) -> int:
        """Crossbars the deployment occupies (one copy of everything)."""
        weights = sum(g.num_crossbars for g in self._weights)
        features = sum(
            g.num_crossbars for g in self._feature_grids if g is not None
        )
        return weights + features
