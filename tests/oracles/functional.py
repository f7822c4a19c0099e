"""Oracles for the functional crossbar engine.

:meth:`repro.hardware.functional_gcn.FunctionalGCN._aggregate` gathers
every arc's grid row in one batched read; the loop here fires one
one-hot wordline MVM per edge, in CSR edge order, as the hardware
would.  :meth:`repro.hardware.crossbar.Crossbar.mvm_batch` and
:meth:`repro.hardware.engine.MappedMatrix.mvm_batch` stream a batch;
:func:`crossbar_mvm_reference`, :func:`mapped_mvm_reference` and
:func:`mvm_batch_reference` multiply one vector at a time.  Each pair
must agree bit for bit — outputs, seeded noise streams and
``CrossbarStats`` counters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.graphs.graph import Graph
from repro.hardware.crossbar import Crossbar
from repro.hardware.engine import MappedMatrix
from repro.hardware.functional_gcn import FunctionalGCN


def crossbar_mvm_reference(
    crossbar: Crossbar, input_vector: np.ndarray,
) -> np.ndarray:
    """One matrix-vector multiply ``input @ values`` on one crossbar.

    The input has one entry per wordline (shorter vectors are
    zero-padded); one analog pass, one ``mvm_latency_ns`` and one
    ``cols``-wide noise draw.
    """
    vector = np.asarray(input_vector, dtype=np.float32).ravel()
    if vector.size > crossbar.rows:
        raise MappingError(
            f"input of length {vector.size} exceeds {crossbar.rows} wordlines"
        )
    if vector.size < crossbar.rows:
        vector = np.pad(vector, (0, crossbar.rows - vector.size))
    result = crossbar._matmul(vector[None, :])[0]
    crossbar.stats.mvm_reads += 1
    crossbar.stats.busy_ns += crossbar.config.mvm_latency_ns
    return crossbar._apply_read_noise(result)


def mapped_mvm_reference(
    mapped: MappedMatrix, vector: np.ndarray,
) -> np.ndarray:
    """Dense MVM ``vector @ matrix`` streamed through the grid one tile
    at a time; an all-zero input segment leaves its row tile quiet."""
    vector = np.asarray(vector, dtype=np.float32).ravel()
    rows_total, cols_total = mapped.shape
    if vector.size != rows_total:
        raise MappingError(
            f"input length {vector.size} != matrix rows {rows_total}"
        )
    rows = mapped._config.crossbar_rows
    cols = mapped._config.logical_cols
    out = np.zeros(cols_total, dtype=np.float32)
    for r in range(mapped.plan.row_tiles):
        segment = vector[r * rows:(r + 1) * rows]
        if not np.any(segment):
            continue  # zero input segment: wordlines stay quiet
        for c in range(mapped.plan.col_tiles):
            width = min(cols, cols_total - c * cols)
            out[c * cols:c * cols + width] += crossbar_mvm_reference(
                mapped._grid[r][c], segment,
            )[:width]
    return out


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
                acc += mapped_mvm_reference(grid, one_hot)
            out[v] = acc
        return out


def mvm_batch_reference(
    mapped: MappedMatrix, matrix: np.ndarray,
) -> np.ndarray:
    """Per-row loop over :func:`mapped_mvm_reference` — the oracle."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise MappingError("mvm_batch expects 2-D input")
    return np.stack([mapped_mvm_reference(mapped, row) for row in matrix])
