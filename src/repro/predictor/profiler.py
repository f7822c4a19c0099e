"""Profiling-based time estimation — the baseline the predictor replaces.

Prior work estimates stage times by actually running (profiling) the
workload on the accelerator for some epochs (Section V-A quotes 1688.9 s
for one profiling pass on *ppa*).  Profiling yields exact times but its
*overhead* is the simulated time of the profiled epochs themselves; the
ML predictor pays a one-off training cost and then answers in
milliseconds.  Table VII compares the end speedups and the overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.stages.latency import StageTimingModel


@dataclass(frozen=True)
class ProfilingResult:
    """Exact stage times plus the cost of obtaining them."""

    stage_times_ns: Dict[str, float]
    overhead_ns: float


def profile_stage_times(timing_model: StageTimingModel) -> ProfilingResult:
    """Measure stage times by running one serial epoch.

    The returned times are the exact per-stage means; the overhead is the
    total simulated serial execution time spent to observe them (every
    stage of every micro-batch).  The profiled epoch is
    priced by the current session's simulation backend (profiling *is*
    running the workload, so it observes whatever engine the session runs
    under; the analytic engine reproduces the timing model's vectorized
    whole-epoch matrix byte-for-byte).  The equivalence oracle in
    ``tests/oracles/predictor.py`` walks the stage × micro-batch grid in
    Python.
    """
    from repro.backends import EpochProgram, resolve_backend

    workload = timing_model.workload
    matrix = resolve_backend(None).stage_time_matrix(
        EpochProgram(timing=timing_model)
    )
    per_stage = matrix.sum(axis=1)
    stage_times: Dict[str, float] = {
        stage.name: float(per_stage[i] / workload.num_microbatches)
        for i, stage in enumerate(timing_model.stages)
    }
    return ProfilingResult(
        stage_times_ns=stage_times,
        overhead_ns=float(per_stage.sum()),
    )
