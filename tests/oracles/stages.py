"""Oracles for the timing model: one (stage, micro-batch) at a time.

:class:`repro.stages.latency.StageTimingModel` prices a stage's whole
epoch in vectorised passes (``compute_times_ns``, ``write_times_ns``,
``reload_times_ns``, ``microbatch_times_ns``, ``stage_activity_totals``).
The functions here price or count one micro-batch with scalar Python
arithmetic, so the vector entry for micro-batch ``mb`` must equal the
oracle's value bit for bit (and summing the activity oracle over every
micro-batch must give the whole-epoch totals).

The per-index micro-batch accessors (``microbatch_range`` and friends)
are the contiguous vertex-id partition the vector forms read through
``Workload.microbatch_boundaries``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import PipelineError
from repro.stages.latency import StageActivity, StageTimingModel
from repro.stages.stage import StageKind, StageSpec
from repro.stages.workload import Workload


# ----------------------------------------------------------------------
# Micro-batch partition, one index at a time
# ----------------------------------------------------------------------
def microbatch_range(workload: Workload, index: int) -> Tuple[int, int]:
    """Vertex-id half-open range covered by micro-batch ``index``."""
    if not 0 <= index < workload.num_microbatches:
        raise PipelineError(
            f"micro-batch {index} out of range "
            f"(0..{workload.num_microbatches - 1})"
        )
    start = index * workload.micro_batch
    return start, min(start + workload.micro_batch, workload.num_vertices)


def microbatch_vertices(workload: Workload, index: int) -> np.ndarray:
    """Vertex ids of micro-batch ``index``."""
    start, stop = microbatch_range(workload, index)
    return np.arange(start, stop, dtype=np.int64)


def microbatch_size(workload: Workload, index: int) -> int:
    """Vertices in micro-batch ``index`` (the last may be ragged)."""
    start, stop = microbatch_range(workload, index)
    return stop - start


def microbatch_edges(workload: Workload, index: int) -> int:
    """Sum of degrees over micro-batch ``index`` (AG/GC input work)."""
    start, stop = microbatch_range(workload, index)
    return int(workload.graph.degrees[start:stop].sum())


# ----------------------------------------------------------------------
# Latency, one (stage, micro-batch) at a time
# ----------------------------------------------------------------------
def compute_time_reference(
    model: StageTimingModel,
    stage: StageSpec,
    mb_index: int,
    replicas: int = 1,
) -> float:
    """MVM + scan latency of one micro-batch at ``replicas`` copies."""
    if replicas < 1:
        raise PipelineError("replicas must be >= 1")
    cfg = model.config
    params = model.params
    b = microbatch_size(model.workload, mb_index)
    if stage.kind.is_edge_proportional:
        edges = microbatch_edges(model.workload, mb_index)
        effective = min(
            replicas * params.intrinsic_edge_parallelism, max(1, edges),
        )
        mvm = edges * cfg.mvm_latency_ns
        row_tiles = -(-stage.mapped_rows // cfg.crossbar_rows)
        groups = -(-row_tiles // params.scan_group_tiles)
        scan = b * groups * cfg.read_latency_ns
        return (mvm + scan) / effective
    effective = min(replicas, b)
    row_tiles = -(-stage.input_dim // cfg.crossbar_rows)
    return b * row_tiles * cfg.mvm_latency_ns / effective


def write_max_rows_reference(
    model: StageTimingModel,
    mb_index: int,
    full_round: bool,
) -> int:
    """Busiest-crossbar row count for a micro-batch's update round."""
    plan = model.update_plan
    vertices = microbatch_vertices(model.workload, mb_index)
    if not full_round:
        vertices = np.intersect1d(vertices, plan.important, assume_unique=True)
    if vertices.size == 0:
        return 0
    return int(plan.mapping.rows_per_crossbar_for(vertices).max())


def write_time_reference(
    model: StageTimingModel,
    stage: StageSpec,
    mb_index: int,
) -> float:
    """Expected update-write latency of one (stage, micro-batch)."""
    cfg = model.config
    per_row = cfg.row_write_latency_ns * model.params.write_pulses
    if stage.kind is StageKind.AGGREGATION:
        period = model.update_plan.minor_period
        partial = write_max_rows_reference(model, mb_index, full_round=False)
        full = write_max_rows_reference(model, mb_index, full_round=True)
        expected = ((period - 1) * partial + full) / period
        return expected * per_row
    if stage.kind is StageKind.COMBINATION:
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        return rows * per_row / model.workload.num_microbatches
    return 0.0


def reload_time_reference(
    model: StageTimingModel,
    stage: StageSpec,
    mb_index: int,
) -> float:
    """ReFlip-style repeated source-vertex loads (0 unless configured)."""
    params = model.params
    if params.reload_penalty == 0.0 or not stage.kind.is_edge_proportional:
        return 0.0
    edges = microbatch_edges(model.workload, mb_index)
    return edges * params.reload_penalty * model.config.row_write_latency_ns


def microbatch_time_reference(
    model: StageTimingModel,
    stage: StageSpec,
    mb_index: int,
    replicas: int = 1,
) -> float:
    """Full latency of one (stage, micro-batch) execution."""
    return (
        compute_time_reference(model, stage, mb_index, replicas)
        + write_time_reference(model, stage, mb_index)
        + reload_time_reference(model, stage, mb_index)
    )


# ----------------------------------------------------------------------
# Energy activity, one (stage, micro-batch) at a time
# ----------------------------------------------------------------------
def stage_activity_reference(
    model: StageTimingModel,
    stage: StageSpec,
    mb_index: int,
) -> StageActivity:
    """Event counts of one (stage, micro-batch) execution — the oracle."""
    cfg = model.config
    workload = model.workload
    b = microbatch_size(workload, mb_index)
    col_tiles = -(-stage.mapped_cols // cfg.logical_cols)
    value_bytes = max(1, cfg.input_bits // 8)

    if stage.kind.is_edge_proportional:
        edges = microbatch_edges(workload, mb_index)
        streams = edges
        buffer_bytes = float(
            edges * value_bytes + b * stage.mapped_cols * value_bytes
        )
    else:
        streams = b * -(-stage.input_dim // cfg.crossbar_rows)
        buffer_bytes = float(
            b * (stage.input_dim + stage.mapped_cols) * value_bytes
        )

    rows_written = 0
    pulses = model.params.write_pulses
    plan = model.update_plan
    if stage.kind is StageKind.AGGREGATION:
        period = plan.minor_period
        vertices = microbatch_vertices(workload, mb_index)
        important = np.intersect1d(
            vertices, plan.important, assume_unique=True,
        ).size
        expected_rows = ((period - 1) * important + vertices.size) / period
        rows_written = int(round(expected_rows * pulses * col_tiles))
    elif stage.kind is StageKind.COMBINATION:
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        rows_written = int(round(
            rows * pulses * col_tiles / workload.num_microbatches
        ))
    if model.params.reload_penalty > 0 and stage.kind.is_edge_proportional:
        edges = microbatch_edges(workload, mb_index)
        rows_written += int(round(
            edges * model.params.reload_penalty * pulses * col_tiles
        ))

    return StageActivity(
        mvm_row_streams=streams,
        rows_written=rows_written,
        buffer_bytes=buffer_bytes,
        offchip_bytes=buffer_bytes * 0.5,
    )
