"""Oracle for the co-simulator's per-phase epoch tables.

:meth:`repro.core.cosim.CoSimulation.run` prices each epoch through the
simulation backend with the write phase pinned
(``EpochProgram(..., full_round=...)``).  ``epoch_times_reference`` is the
per-(stage, micro-batch) scalar loop that whole-epoch table must equal
bit for bit on the analytic backend.
"""

from __future__ import annotations

import numpy as np

from repro.stages.stage import StageKind
from tests.oracles.stages import (
    compute_time_reference,
    reload_time_reference,
    write_max_rows_reference,
)


def epoch_times_reference(timing, replicas, full_round: bool) -> np.ndarray:
    """Per-micro-batch scalar loop — the equivalence oracle."""
    times = np.empty(
        (len(timing.stages), timing.workload.num_microbatches),
    )
    for i, stage in enumerate(timing.stages):
        for mb in range(timing.workload.num_microbatches):
            compute = compute_time_reference(
                timing, stage, mb, int(replicas[i]),
            )
            write = epoch_write_ns(timing, stage, mb, full_round)
            reload = reload_time_reference(timing, stage, mb)
            times[i, mb] = compute + write + reload
    return times


def epoch_write_ns(timing, stage, mb, full_round: bool) -> float:
    """Write time for a specific epoch phase (not the expected mix)."""
    cfg = timing.config
    per_row = cfg.row_write_latency_ns * timing.params.write_pulses
    if stage.kind is StageKind.AGGREGATION:
        rows = write_max_rows_reference(timing, mb, full_round=full_round)
        return rows * per_row
    if stage.kind is StageKind.COMBINATION:
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        return rows * per_row / timing.workload.num_microbatches
    return 0.0
