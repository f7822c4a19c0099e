"""Functional crossbar-level execution of GCN stages.

The analytic model in :mod:`repro.stages.latency` prices stages without
touching data.  This module is its value-accurate counterpart: it builds
real :class:`~repro.hardware.crossbar.Crossbar` grids, programs matrices
onto them with the Section II-B tiling, streams inputs, and accumulates
partial sums through a software S+A chain — so tests can check both the
numerics (results match numpy) and the cost model (event counts match the
analytic activity predictions).

Two pieces cover the GCN stage types:

* :class:`MappedMatrix` — a matrix resident on a crossbar grid, supporting
  dense MVM (Combination / Loss stages) and batched row reads, one
  wordline activation per read (Aggregation / Gradient stages);
* :func:`segment_leftfold_sum` — the order-preserving per-vertex sum that
  :class:`~repro.hardware.functional_gcn.FunctionalGCN` folds those reads
  with, matching the row-major execution the latency model charges per
  edge.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import MappingError
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.hardware.crossbar import Crossbar, CrossbarStats
from repro.mapping.tiling import TilingPlan, plan_tiling


class MappedMatrix:
    """A value matrix programmed across a grid of crossbars.

    Parameters
    ----------
    matrix:
        The ``(rows, cols)`` values to program.
    config:
        Hardware configuration (geometry, latencies).
    quantize:
        Forwarded to the crossbars (cell-resolution quantisation).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        config: HardwareConfig = DEFAULT_CONFIG,
        quantize: bool = False,
        read_noise_sigma: float = 0.0,
        random_state: int = 0,
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.size == 0:
            raise MappingError("MappedMatrix needs a non-empty 2-D matrix")
        self._config = config
        self._matrix_rows, self._matrix_cols = matrix.shape
        self._plan = plan_tiling(*matrix.shape, config)
        self._grid: List[List[Crossbar]] = [
            [Crossbar(config, quantize=quantize,
                      read_noise_sigma=read_noise_sigma,
                      random_state=random_state + 131 * r + c)
             for c in range(self._plan.col_tiles)]
            for r in range(self._plan.row_tiles)
        ]
        self.program_latency_ns = self._program(matrix)

    @property
    def plan(self) -> TilingPlan:
        """The tiling grid."""
        return self._plan

    @property
    def shape(self) -> tuple:
        """Logical matrix shape."""
        return (self._matrix_rows, self._matrix_cols)

    @property
    def num_crossbars(self) -> int:
        """Crossbars in the grid."""
        return self._plan.num_crossbars

    def _block(self, matrix: np.ndarray, r: int, c: int) -> np.ndarray:
        rows = self._config.crossbar_rows
        cols = self._config.logical_cols
        return matrix[r * rows:(r + 1) * rows, c * cols:(c + 1) * cols]

    def _program(self, matrix: np.ndarray) -> float:
        # Row tiles program in parallel (distinct crossbars); within one
        # crossbar rows are serial, so the grid cost is the max tile cost.
        worst = 0.0
        for r in range(self._plan.row_tiles):
            for c in range(self._plan.col_tiles):
                latency = self._grid[r][c].program(self._block(matrix, r, c))
                worst = max(worst, latency)
        return worst

    # ------------------------------------------------------------------
    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """Dense MVM: ``vector @ matrix`` streamed through the grid.

        Column tiles run in parallel; row tiles serialise through the S+A
        chain (their partial sums are accumulated here).
        """
        vector = np.asarray(vector, dtype=np.float32).ravel()
        if vector.size != self._matrix_rows:
            raise MappingError(
                f"input length {vector.size} != matrix rows "
                f"{self._matrix_rows}"
            )
        rows = self._config.crossbar_rows
        cols = self._config.logical_cols
        out = np.zeros(self._matrix_cols, dtype=np.float32)
        for r in range(self._plan.row_tiles):
            segment = vector[r * rows:(r + 1) * rows]
            if not np.any(segment):
                continue  # zero input segment: wordlines stay quiet
            for c in range(self._plan.col_tiles):
                width = min(cols, self._matrix_cols - c * cols)
                out[c * cols:c * cols + width] += (
                    self._grid[r][c].mvm(segment)[:width]
                )
        return out

    def mvm_batch(self, matrix: np.ndarray) -> np.ndarray:
        """MVM for each input row, batched tile by tile.

        Bit-identical to a per-row loop over :meth:`mvm` (the oracle in
        ``tests/oracles/functional.py``): row tiles whose input segment is
        all-zero are skipped for exactly the rows the scalar path skips
        them for (wordlines stay quiet — no activation counted, no noise
        drawn), partial sums accumulate over row tiles in the same order,
        and each crossbar draws its read noise for all its active rows in
        one batched call from the same seeded stream.
        """
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise MappingError("mvm_batch expects 2-D input")
        if matrix.shape[1] != self._matrix_rows:
            raise MappingError(
                f"input length {matrix.shape[1]} != matrix rows "
                f"{self._matrix_rows}"
            )
        rows = self._config.crossbar_rows
        cols = self._config.logical_cols
        out = np.zeros((matrix.shape[0], self._matrix_cols), dtype=np.float32)
        for r in range(self._plan.row_tiles):
            segment = matrix[:, r * rows:(r + 1) * rows]
            active = np.flatnonzero(np.any(segment, axis=1))
            if active.size == 0:
                continue
            segment = segment[active]
            for c in range(self._plan.col_tiles):
                width = min(cols, self._matrix_cols - c * cols)
                result = self._grid[r][c].mvm_batch(segment)
                out[active, c * cols:c * cols + width] += result[:, :width]
        return out

    def read_rows(self, row_ids: np.ndarray) -> np.ndarray:
        """Noisy resident rows for a sequence of logical row ids.

        Equivalent to firing one one-hot MVM per id through :meth:`mvm`
        in the given order: only the row tile holding each id activates,
        and each crossbar's noise draws cover its ids in sequence order
        (ids are routed to tiles with order-preserving masks, so the
        per-crossbar subsequence matches the scalar loop's).  Duplicate
        ids are independent reads with independent noise.
        """
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise MappingError("read_rows expects a 1-D id array")
        if ids.size and (ids.min() < 0 or ids.max() >= self._matrix_rows):
            raise MappingError("row ids out of range")
        rows = self._config.crossbar_rows
        cols = self._config.logical_cols
        out = np.empty((ids.size, self._matrix_cols), dtype=np.float32)
        for r in range(self._plan.row_tiles):
            here = np.flatnonzero((ids >= r * rows) & (ids < (r + 1) * rows))
            if here.size == 0:
                continue
            local = ids[here] - r * rows
            for c in range(self._plan.col_tiles):
                width = min(cols, self._matrix_cols - c * cols)
                block = self._grid[r][c].read_rows(local)
                out[here, c * cols:c * cols + width] = block[:, :width]
        return out

    def stats(self) -> CrossbarStats:
        """Merged event counters across the whole grid."""
        total = CrossbarStats()
        for row in self._grid:
            for crossbar in row:
                total.merge(crossbar.stats)
        return total


def segment_leftfold_sum(
    indptr: np.ndarray,
    rows: np.ndarray,
    initial: np.ndarray,
) -> np.ndarray:
    """Segment sums of ``rows`` that replay the scalar fold bit-for-bit.

    Segment ``i`` covers ``rows[indptr[i]:indptr[i + 1]]``; the result is
    ``initial[i] + rows[s] + rows[s + 1] + ...`` accumulated *in that
    order* in float32.  ``np.add.reduceat`` uses a different (pairwise)
    accumulation order, so instead the fold runs round by round — round
    ``j`` adds every segment's ``j``-th row — which reproduces exactly
    the per-element addition sequence of the per-segment Python loop.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    out = np.array(initial, dtype=np.float32, copy=True)
    if out.shape[0] != indptr.size - 1:
        raise MappingError("initial must have one row per segment")
    starts = indptr[:-1]
    lengths = indptr[1:] - starts
    max_len = int(lengths.max()) if lengths.size else 0
    for j in range(max_len):
        active = np.flatnonzero(lengths > j)
        out[active] += rows[starts[active] + j]
    return out
