"""Matrix tiling onto crossbars."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.hardware.config import DEFAULT_CONFIG
from repro.mapping.tiling import plan_tiling


def test_small_matrix_single_crossbar():
    plan = plan_tiling(64, 32)
    assert plan.row_tiles == 1 and plan.col_tiles == 1
    assert plan.num_crossbars == 1


def test_table_vi_combination_stage():
    # 256x256 weight matrix -> 32 crossbars (ddi CO stages in Table VI).
    plan = plan_tiling(256, 256)
    assert plan.row_tiles == 4
    assert plan.col_tiles == 8
    assert plan.num_crossbars == 32


def test_table_vi_aggregation_stage():
    # ddi's 4267x256 feature matrix -> 536-crossbar grid (paper: ~534 by
    # pure capacity division).
    assert plan_tiling(4267, 256).num_crossbars == 536


def test_ragged_edges_round_up():
    plan = plan_tiling(65, 33)
    assert plan.row_tiles == 2
    assert plan.col_tiles == 2


def test_capacity_covers_matrix():
    plan = plan_tiling(100, 50)
    cfg = DEFAULT_CONFIG
    assert plan.num_crossbars * cfg.crossbar_rows * cfg.logical_cols >= 100 * 50


def test_validation():
    with pytest.raises(MappingError):
        plan_tiling(0, 5)
    with pytest.raises(MappingError):
        plan_tiling(5, 0)


@given(
    rows=st.integers(1, 5000),
    cols=st.integers(1, 2000),
)
@settings(max_examples=100, deadline=None)
def test_tiling_invariants(rows, cols):
    cfg = DEFAULT_CONFIG
    plan = plan_tiling(rows, cols, cfg)
    # Tiles exactly cover the matrix with no underflow.
    assert (plan.row_tiles - 1) * cfg.crossbar_rows < rows
    assert plan.row_tiles * cfg.crossbar_rows >= rows
    assert (plan.col_tiles - 1) * cfg.logical_cols < cols
    assert plan.col_tiles * cfg.logical_cols >= cols
    assert plan.num_crossbars == plan.row_tiles * plan.col_tiles
    assert plan.num_crossbars * cfg.crossbar_rows * cfg.logical_cols >= (
        rows * cols
    )
