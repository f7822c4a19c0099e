"""Stage chain construction (Fig. 2 / Fig. 10 semantics)."""

import pytest

from repro.errors import PipelineError
from repro.stages.stage import StageKind, build_stage_chain


def test_two_layer_chain_order():
    chain = build_stage_chain(100, [(16, 32), (32, 8)])
    names = [s.name for s in chain]
    assert names == ["CO1", "AG1", "CO2", "AG2", "LC2", "GC2", "LC1", "GC1"]
    assert [s.chain_index for s in chain] == list(range(8))


def test_chain_length_is_4l():
    for layers in (1, 2, 3, 5):
        dims = [(8, 8)] * layers
        assert len(build_stage_chain(10, dims)) == 4 * layers


def test_mapped_shapes():
    chain = build_stage_chain(100, [(16, 32), (32, 8)])
    by_name = {s.name: s for s in chain}
    assert (by_name["CO1"].mapped_rows, by_name["CO1"].mapped_cols) == (16, 32)
    assert (by_name["AG1"].mapped_rows, by_name["AG1"].mapped_cols) == (100, 32)
    assert (by_name["LC2"].mapped_rows, by_name["LC2"].mapped_cols) == (8, 32)
    assert (by_name["GC1"].mapped_rows, by_name["GC1"].mapped_cols) == (100, 16)


def test_stage_kind_flags():
    assert StageKind.AGGREGATION.is_edge_proportional
    assert StageKind.GRADIENT.is_edge_proportional
    assert not StageKind.COMBINATION.is_edge_proportional
    assert not StageKind.LOSS.is_edge_proportional


def test_input_dims():
    chain = build_stage_chain(50, [(16, 32)])
    by_name = {s.name: s for s in chain}
    assert by_name["CO1"].input_dim == 16
    assert by_name["AG1"].input_dim == 50
    assert by_name["LC1"].input_dim == 32


def test_validation():
    with pytest.raises(PipelineError):
        build_stage_chain(0, [(4, 4)])
    with pytest.raises(PipelineError):
        build_stage_chain(10, [])
    with pytest.raises(PipelineError):
        build_stage_chain(10, [(0, 4)])
