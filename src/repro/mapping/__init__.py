"""Data mapping: matrix tiling, vertex placement, selective updating."""

from repro.mapping.tiling import TilingPlan, plan_tiling
from repro.mapping.vertex_map import (
    VertexMapping,
    index_mapping,
    interleaved_mapping,
)
from repro.mapping.selective import (
    DENSE_DEGREE_THRESHOLD,
    DENSE_THETA,
    MINOR_UPDATE_PERIOD,
    SPARSE_THETA,
    UpdatePlan,
    adaptive_theta,
    build_update_plan,
)

__all__ = [
    "TilingPlan",
    "plan_tiling",
    "VertexMapping",
    "index_mapping",
    "interleaved_mapping",
    "DENSE_DEGREE_THRESHOLD",
    "DENSE_THETA",
    "MINOR_UPDATE_PERIOD",
    "SPARSE_THETA",
    "UpdatePlan",
    "adaptive_theta",
    "build_update_plan",
]
