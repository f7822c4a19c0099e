"""Matrix-to-crossbar tiling (Section II-B's mapping strategy).

A matrix larger than one crossbar is extended horizontally and vertically:
a long row spreads across the same row of several crossbars (column tiles),
and rows beyond one crossbar's wordlines spill into further crossbars (row
tiles).  REFLIP and GoPIM both use this approach; all our accelerator
models share it.

The :class:`TilingPlan` also records the serialisation structure the
latency model needs: row tiles accumulate partial sums through the shared
S+A chain and therefore activate **serially**, while column tiles own
independent ADC lanes and run **in parallel**.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig


@dataclass(frozen=True)
class TilingPlan:
    """How one logical matrix maps onto a grid of crossbars.

    Attributes
    ----------
    matrix_rows / matrix_cols:
        Logical (value-level) matrix shape.
    row_tiles:
        Vertical extension count — matrix rows / crossbar wordlines.
    col_tiles:
        Horizontal extension count — matrix value-columns / logical columns
        per crossbar (cells per value already factored in).
    rows_per_tile:
        Wordlines used per row tile (== crossbar rows except the last).
    """

    matrix_rows: int
    matrix_cols: int
    row_tiles: int
    col_tiles: int
    rows_per_tile: int

    @property
    def num_crossbars(self) -> int:
        """Crossbars one replica of this matrix occupies."""
        return self.row_tiles * self.col_tiles

    @property
    def cols_per_tile(self) -> int:
        """Value columns served by each column tile (last may be ragged)."""
        return -(-self.matrix_cols // self.col_tiles)

    @property
    def values_capacity(self) -> int:
        """Logical value slots provided by the reserved crossbar grid."""
        return self.num_crossbars * self.rows_per_tile * self.cols_per_tile


def plan_tiling(
    matrix_rows: int,
    matrix_cols: int,
    config: HardwareConfig = DEFAULT_CONFIG,
) -> TilingPlan:
    """Compute the tiling grid for a ``rows x cols`` value matrix."""
    if matrix_rows < 1 or matrix_cols < 1:
        raise MappingError(
            f"matrix must be at least 1x1, got {matrix_rows}x{matrix_cols}"
        )
    row_tiles = -(-matrix_rows // config.crossbar_rows)
    col_tiles = -(-matrix_cols // config.logical_cols)
    return TilingPlan(
        matrix_rows=matrix_rows,
        matrix_cols=matrix_cols,
        row_tiles=row_tiles,
        col_tiles=col_tiles,
        rows_per_tile=min(matrix_rows, config.crossbar_rows),
    )
