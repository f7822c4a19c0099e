"""Oracles for the pipeline scheduler: the original double loop and Eq. 6.

:func:`repro.pipeline.simulator.simulate_pipeline` evaluates the Eq. 3/4
recurrence one stage row at a time as a running-maximum scan; the loop
here walks every (micro-batch, stage) cell in order.  The two must agree
event by event.  :func:`analytic_makespan_ns` is Eq. 6's closed form,
which the scheduler must reproduce for uniform stage times.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import PipelineError
from repro.pipeline.simulator import (
    PipelineResult,
    ScheduleMode,
    _validate_times,
)


def simulate_pipeline_reference(
    times_ns: np.ndarray,
    mode: ScheduleMode = ScheduleMode.INTRA_INTER,
    microbatches_per_batch: Optional[int] = None,
) -> PipelineResult:
    """The original pure-Python scheduling loop (equivalence oracle).

    Kept only so tests can assert the vectorized :func:`simulate_pipeline`
    matches Eq. 3/4 event by event; orders of magnitude slower on large
    grids.
    """
    times = _validate_times(times_ns)
    num_stages, num_mbs = times.shape

    starts = np.zeros_like(times)
    ends = np.zeros_like(times)

    if mode is ScheduleMode.SERIAL:
        clock = 0.0
        for mb in range(num_mbs):
            for stage in range(num_stages):
                starts[stage, mb] = clock
                clock += times[stage, mb]
                ends[stage, mb] = clock
        return PipelineResult(starts=starts, ends=ends, mode=mode)

    batch = num_mbs if microbatches_per_batch is None else microbatches_per_batch
    if batch < 1:
        raise PipelineError("microbatches_per_batch must be >= 1")

    # batch_drain[k] = time when batch k may begin (INTRA_BATCH only).
    drain_until = 0.0
    for mb in range(num_mbs):
        if mode is ScheduleMode.INTRA_BATCH and mb % batch == 0 and mb > 0:
            drain_until = float(ends[:, mb - batch:mb].max())
        for stage in range(num_stages):
            earliest = drain_until
            if stage > 0:
                earliest = max(earliest, ends[stage - 1, mb])  # Eq. (4)
            if mb > 0:
                earliest = max(earliest, ends[stage, mb - 1])  # Eq. (3)
            starts[stage, mb] = earliest
            ends[stage, mb] = earliest + times[stage, mb]
    return PipelineResult(starts=starts, ends=ends, mode=mode)


def analytic_makespan_ns(stage_times_ns: Sequence[float], num_microbatches: int) -> float:
    """Eq. (6)'s closed form for uniform stage times, full pipelining."""
    times = np.asarray(stage_times_ns, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise PipelineError("stage_times_ns must be a non-empty 1-D sequence")
    if num_microbatches < 1:
        raise PipelineError("num_microbatches must be >= 1")
    return float(times.sum() + (num_microbatches - 1) * times.max())
