"""Table VII: ML-predicted vs profiling-measured allocation inputs.

Two GoPIM variants differ only in where the allocator's stage times come
from: the trained MLP predictor (milliseconds per query) or an exact
profiling pass (whose overhead is the profiled epochs' own execution
time).  The paper finds the end speedups within 4.3% of each other while
the ML route cuts estimation overhead by ~94%.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.catalog import gopim, serial
from repro.experiments.harness import ExperimentResult
from repro.predictor.profiler import profile_stage_times
from repro.runtime import current_session, experiment


@experiment(
    "tab07",
    title="GoPIM speedups: ML predictor vs profiling",
    datasets=("ddi", "collab", "ppa", "proteins", "arxiv"),
    cost_hint=0.086,
    backends=("analytic", "trace"),
    order=130,
)
def run(
    datasets: Sequence[str] = ("ddi", "collab", "ppa", "proteins", "arxiv"),
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Table VII's ML vs profiling comparison."""
    session = current_session()
    predictor = session.predictor(seed=seed)
    result = ExperimentResult(
        experiment_id="tab07",
        title="GoPIM speedups: ML predictor vs profiling (normalised to Serial)",
        notes=(
            "Paper: max end-speedup difference 4.3%; ML cuts estimation "
            "overhead ~94% (predictions take milliseconds, profiling costs "
            "whole epochs)."
        ),
    )
    for dataset in datasets:
        workload = session.workload(dataset, seed=seed)
        base = serial().run(workload)
        ml_report = gopim(time_predictor=predictor).run(workload)
        # Profiling route: exact stage times via a measured serial epoch.
        profiled = profile_stage_times(
            gopim().build_timing_model(workload),
        )
        prof_acc = gopim()
        prof_acc.name = "GoPIM (profiling)"
        prof_acc.predicted_times = profiled.stage_times_ns
        prof_report = prof_acc.run(workload)
        ml_speedup = base.total_time_ns / ml_report.total_time_ns
        prof_speedup = base.total_time_ns / prof_report.total_time_ns
        result.rows.append({
            "dataset": dataset,
            "ML speedup": ml_speedup,
            "profiling speedup": prof_speedup,
            "difference %": round(
                100.0 * abs(ml_speedup - prof_speedup) / prof_speedup, 2,
            ),
            "profiling overhead (ms)": profiled.overhead_ns / 1e6,
        })
    return result
