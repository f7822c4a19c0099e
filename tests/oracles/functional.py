"""Oracles for the functional crossbar engine.

:meth:`repro.hardware.functional_gcn.FunctionalGCN._aggregate` gathers
every arc's grid row in one batched read; the loop here fires one
one-hot wordline MVM per edge, in CSR edge order, as the hardware
would.  :meth:`repro.hardware.engine.MappedMatrix.mvm_batch` streams a
batch tile by tile; :func:`mvm_batch_reference` loops over rows.  Each
pair must agree bit for bit — outputs, seeded noise streams and
``CrossbarStats`` counters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.graphs.graph import Graph
from repro.hardware.engine import MappedMatrix
from repro.hardware.functional_gcn import FunctionalGCN


class PerEdgeFunctionalGCN(FunctionalGCN):
    """:class:`FunctionalGCN` aggregating with the per-edge MVM loop."""

    def _aggregate(
        self,
        graph: Graph,
        grid: MappedMatrix,
        resident_rows: np.ndarray,
    ) -> np.ndarray:
        """Per-edge wordline-activation loop — the equivalence oracle."""
        n = graph.num_vertices
        dim = resident_rows.shape[1]
        out = np.zeros((n, dim), dtype=np.float32)
        for v in range(n):
            acc = resident_rows[v].copy()  # self loop (A + I)
            for u in graph.neighbors(v):
                one_hot = np.zeros(n, dtype=np.float32)
                one_hot[u] = 1.0
                acc += grid.mvm(one_hot)
            out[v] = acc
        return out


def mvm_batch_reference(
    mapped: MappedMatrix, matrix: np.ndarray,
) -> np.ndarray:
    """Per-row loop over :meth:`MappedMatrix.mvm` — the oracle."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise MappingError("mvm_batch expects 2-D input")
    return np.stack([mapped.mvm(row) for row in matrix])
