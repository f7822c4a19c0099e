"""Oracle for the timing model's energy activity: one micro-batch at a time.

:meth:`repro.stages.latency.StageTimingModel.stage_activity_totals`
computes a stage's whole-epoch event counts in one vectorised pass; the
function here counts one (stage, micro-batch) execution, so summing it
over every micro-batch must give the same totals.
"""

from __future__ import annotations

import numpy as np

from repro.stages.latency import StageActivity, StageTimingModel
from repro.stages.stage import StageKind, StageSpec


def stage_activity_reference(
    model: StageTimingModel,
    stage: StageSpec,
    mb_index: int,
) -> StageActivity:
    """Event counts of one (stage, micro-batch) execution — the oracle."""
    cfg = model._config
    b = model._workload.microbatch_size(mb_index)
    col_tiles = model._col_tiles(stage.mapped_cols)
    value_bytes = max(1, cfg.input_bits // 8)

    if stage.kind.is_edge_proportional:
        edges = model._workload.microbatch_edges(mb_index)
        streams = edges
        buffer_bytes = float(
            edges * value_bytes + b * stage.mapped_cols * value_bytes
        )
    else:
        streams = b * model._row_tiles(stage.input_dim)
        buffer_bytes = float(
            b * (stage.input_dim + stage.mapped_cols) * value_bytes
        )

    rows_written = 0
    pulses = model._params.write_pulses
    if stage.kind is StageKind.AGGREGATION:
        period = model._plan.minor_period
        vertices = model._workload.microbatch_vertices(mb_index)
        important = np.intersect1d(
            vertices, model._plan.important, assume_unique=True,
        ).size
        expected_rows = ((period - 1) * important + vertices.size) / period
        rows_written = int(round(expected_rows * pulses * col_tiles))
    elif stage.kind is StageKind.COMBINATION:
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        rows_written = int(round(
            rows * pulses * col_tiles / model._workload.num_microbatches
        ))
    if model._params.reload_penalty > 0 and stage.kind.is_edge_proportional:
        edges = model._workload.microbatch_edges(mb_index)
        rows_written += int(round(
            edges * model._params.reload_penalty * pulses * col_tiles
        ))

    return StageActivity(
        mvm_row_streams=streams,
        crossbars_per_stream=col_tiles,
        rows_written=rows_written,
        buffer_bytes=buffer_bytes,
        offchip_bytes=buffer_bytes * 0.5,
    )
