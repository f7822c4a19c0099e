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
as constants.  As for the GCN, :class:`GraphSAGE` holds the dims,
weights and model stream; the pass that runs is
``_StackedSAGE`` in :mod:`repro.gcn.batched`, and the serial
forward/backward it mirrors is an oracle in ``tests/oracles/gnn.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError

Params = Dict[str, np.ndarray]


class GraphSAGE:
    """A mean-aggregator GraphSAGE's dims, weights and model stream (two
    weight matrices per layer: ``W{i}_self``, ``W{i}_neigh``)."""

    def __init__(
        self,
        layer_dims: Sequence[Tuple[int, int]],
        random_state: int = 0,
    ) -> None:
        if not layer_dims:
            raise TrainingError("need at least one layer")
        for (_, prev_out), (next_in, _) in zip(layer_dims[:-1], layer_dims[1:]):
            if prev_out != next_in:
                raise TrainingError("layer dimensions do not chain")
        self._dims = [tuple(d) for d in layer_dims]
        self._rng = np.random.default_rng(random_state)
        self.params: Params = {}
        for i, (d_in, d_out) in enumerate(self._dims):
            scale = np.sqrt(2.0 / (d_in + d_out))
            for role in ("self", "neigh"):
                self.params[f"W{i}_{role}"] = self._rng.normal(
                    0.0, scale, size=(d_in, d_out),
                ).astype(np.float32)

    @property
    def layer_dims(self) -> List[Tuple[int, int]]:
        """Per-layer (d_in, d_out)."""
        return list(self._dims)
