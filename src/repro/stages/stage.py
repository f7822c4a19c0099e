"""GCN training stage descriptors (Section II-A / Fig. 2 / Fig. 10).

An L-layer GCN trains in ``4L`` stages per micro-batch:

    CO1 -> AG1 -> ... -> COL -> AGL -> LCL -> GCL -> ... -> LC1 -> GC1

Forward: *Combination* (CO, features x weights) then *Aggregation* (AG,
adjacency x combined features).  Backward: *loss calculation* (LC, error
propagation through W^T — same dataflow as CO) then *gradient compute*
(GC, which like AG is edge-proportional: the input-feature gradient is an
aggregation with A^T, while the SRAM Weight Manager overlaps the weight
gradient).  Table VI's crossbar counts confirm this small/large
alternation: [32, 534, 32, 534, 32, 534, 32, 534] on ddi.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.errors import PipelineError


class StageKind(enum.Enum):
    """The four GCN training stage types."""

    COMBINATION = "CO"
    AGGREGATION = "AG"
    LOSS = "LC"
    GRADIENT = "GC"

    @property
    def is_edge_proportional(self) -> bool:
        """Whether stage work scales with edges (AG/GC) or rows (CO/LC)."""
        return self in (StageKind.AGGREGATION, StageKind.GRADIENT)


@dataclass(frozen=True)
class StageSpec:
    """One stage of the 4L chain.

    Attributes
    ----------
    kind:
        CO / AG / LC / GC.
    layer:
        1-based GCN layer this stage belongs to.
    chain_index:
        0-based position in execution order.
    mapped_rows / mapped_cols:
        Logical value shape of the matrix programmed on crossbars: the
        weight matrix for CO/LC, the vertex-feature matrix for AG/GC.
    input_dim:
        Length of one input vector streamed into the crossbars (feature
        dim for CO/LC; number of vertices for AG/GC adjacency rows).

    :attr:`name` is formatted on first read and kept on the instance:
    every priced run reads each stage's name several times.
    """

    kind: StageKind
    layer: int
    chain_index: int
    mapped_rows: int
    mapped_cols: int
    input_dim: int

    @cached_property
    def name(self) -> str:
        """Short id like ``"AG2"`` used throughout the paper's figures."""
        return f"{self.kind.value}{self.layer}"

    def __repr__(self) -> str:
        return (
            f"StageSpec({self.name}, idx={self.chain_index}, "
            f"mapped={self.mapped_rows}x{self.mapped_cols})"
        )


def build_stage_chain(
    num_vertices: int,
    layer_dims: Sequence[Tuple[int, int]],
) -> List[StageSpec]:
    """Build the 4L stage chain for a GCN.

    Parameters
    ----------
    num_vertices:
        Graph size N (rows of the mapped feature matrix in AG/GC).
    layer_dims:
        Per-layer ``(d_in, d_out)`` pairs, layer 1 first.
    """
    if num_vertices < 1:
        raise PipelineError("num_vertices must be >= 1")
    if not layer_dims:
        raise PipelineError("need at least one layer")
    for d_in, d_out in layer_dims:
        if d_in < 1 or d_out < 1:
            raise PipelineError("layer dimensions must be >= 1")

    chain: List[StageSpec] = []
    index = 0
    # Forward: CO_l then AG_l, layer 1..L.
    for layer, (d_in, d_out) in enumerate(layer_dims, start=1):
        chain.append(StageSpec(
            kind=StageKind.COMBINATION, layer=layer, chain_index=index,
            mapped_rows=d_in, mapped_cols=d_out, input_dim=d_in,
        ))
        index += 1
        chain.append(StageSpec(
            kind=StageKind.AGGREGATION, layer=layer, chain_index=index,
            mapped_rows=num_vertices, mapped_cols=d_out,
            input_dim=num_vertices,
        ))
        index += 1
    # Backward: LC_l then GC_l, layer L..1.
    for layer in range(len(layer_dims), 0, -1):
        d_in, d_out = layer_dims[layer - 1]
        chain.append(StageSpec(
            kind=StageKind.LOSS, layer=layer, chain_index=index,
            mapped_rows=d_out, mapped_cols=d_in, input_dim=d_out,
        ))
        index += 1
        chain.append(StageSpec(
            kind=StageKind.GRADIENT, layer=layer, chain_index=index,
            mapped_rows=num_vertices, mapped_cols=d_in,
            input_dim=num_vertices,
        ))
        index += 1
    return chain
