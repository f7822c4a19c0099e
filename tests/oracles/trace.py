"""Oracle for trace replay: masked record copies and ``np.add.at``.

:func:`repro.backends.trace.replay_stage_times` sums every record of a
compiled epoch in one ``bincount`` over (opcode class x stage x
micro-batch) bins.  The loop here prices one stage: it selects the
compute, write and reload records of that stage's program with boolean
masks and adds them record by record, as the trace backend did before;
each row of an epoch replay must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.backends.trace import OP_RELOAD, OP_WRITE_FULL, OP_WRITE_PARTIAL
from repro.stages.latency import StageTimingModel, effective_lanes


def replay_stage_times_reference(
    records: np.ndarray,
    timing: StageTimingModel,
    stage_index: int,
    replicas: int,
    full_round=None,
) -> np.ndarray:
    """Record-by-record form of :func:`replay_stage_times`."""
    stage = timing.stages[stage_index]
    workload = timing.workload
    num_mbs = workload.num_microbatches
    lanes = effective_lanes(
        stage.kind.is_edge_proportional, replicas,
        workload.microbatch_sizes(), workload.microbatch_edge_counts(),
        timing.params.intrinsic_edge_parallelism,
    )

    times = np.zeros(num_mbs)
    compute = records[records["dep"] == 0]
    if compute.size:
        mb = compute["mb"]
        critical = np.ceil(compute["count"] / lanes[mb])
        np.add.at(
            times, mb, critical * compute["tile"] * compute["unit_ns"],
        )

    partial = np.zeros(num_mbs)
    full = np.zeros(num_mbs)
    for opcode, dest in ((OP_WRITE_PARTIAL, partial), (OP_WRITE_FULL, full)):
        rows = records[records["opcode"] == opcode]
        if rows.size:
            np.add.at(
                dest, rows["mb"],
                rows["count"] * rows["tile"] * rows["unit_ns"],
            )
    if full_round is None:
        period = timing.update_plan.minor_period
        times += ((period - 1) * partial + full) / period
    else:
        times += full if full_round else partial

    reload = records[records["opcode"] == OP_RELOAD]
    if reload.size:
        np.add.at(
            times, reload["mb"],
            reload["count"] * reload["tile"] * reload["unit_ns"],
        )
    return times
