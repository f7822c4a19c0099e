"""Ablation: allocation-policy quality and decision time (Section V-B/VII-G).

Compares every allocator on identical problems: Eq. (6) makespan of the
resulting assignment (quality) and wall-clock decision time (the paper's
motivation for replacing dynamic programming — multi-day decisions on
*products* — with the max-heap greedy).  The exhaustive T_max-sweep stands
in for the DP optimum.
"""

from __future__ import annotations

import functools
import time
from typing import Sequence

import numpy as np

from repro.allocation.baselines import (
    combination_only_allocation,
    exhaustive_allocation,
    fixed_ratio_allocation,
    serial_allocation,
    uniform_allocation,
)
from repro.allocation.greedy import greedy_allocation, greedy_allocation_reference
from repro.allocation.problem import AllocationProblem
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.stages.latency import StageTimingModel

# Decision times must reflect an actual search, so the memoised
# allocators run cache-bypassed here; the retained one-purchase-per-
# iteration loop rides along to show what run-skipping buys.
ALLOCATORS = (
    ("serial", serial_allocation),
    ("uniform (PipeLayer)", uniform_allocation),
    ("fixed 1:2 (ReGraphX)", fixed_ratio_allocation),
    ("CO-only (ReFlip)", combination_only_allocation),
    ("greedy (Algorithm 1)", functools.partial(greedy_allocation, memoize=False)),
    ("greedy (reference loop)", greedy_allocation_reference),
    ("exhaustive (DP stand-in)", functools.partial(exhaustive_allocation, memoize=False)),
)


def build_problem(
    dataset: str,
    seed: int = 0,
    scale: float = 1.0,
) -> AllocationProblem:
    """The crossbar-allocation problem one dataset's workload poses."""
    session = current_session()
    config = session.config
    workload = session.workload(dataset, seed=seed, scale=scale)
    timing = StageTimingModel(workload)
    stages = timing.stages
    crossbars = np.array([timing.crossbars_per_replica(s) for s in stages])
    floors = np.array([
        np.mean([timing.write_time_ns(s, mb)
                 for mb in range(workload.num_microbatches)])
        for s in stages
    ])
    times = np.array([
        timing.mean_stage_time_ns(s, 1) for s in stages
    ]) - floors
    return AllocationProblem(
        stage_names=[s.name for s in stages],
        times_ns=np.maximum(times, 1e-3),
        crossbars_per_replica=crossbars,
        budget=config.total_crossbars - int(crossbars.sum()),
        replica_caps=np.array(
            [timing.max_useful_replicas(s) for s in stages],
        ),
        num_microbatches=workload.num_microbatches,
        fixed_floors_ns=floors,
    )


@experiment(
    "abl-allocator",
    title="Allocation policy ablation: makespan quality vs decision time",
    datasets=("ddi", "collab", "products"),
    cost_hint=4.0,
    wall_clock=True,
    order=140,
)
def run(
    datasets: Sequence[str] = ("ddi", "collab", "products"),
    seed: int = 0,
    scale: float = 1.0,
) -> ExperimentResult:
    """Quality + decision-time comparison of all allocation policies."""
    result = ExperimentResult(
        experiment_id="abl-allocator",
        title="Allocation policy ablation: makespan quality vs decision time",
        notes=(
            "Greedy should land within a few percent of the exhaustive "
            "optimum while deciding orders of magnitude faster — the "
            "paper's case against DP allocators (days on products)."
        ),
    )
    for dataset in datasets:
        problem = build_problem(dataset, seed=seed, scale=scale)
        baseline = problem.makespan_ns(
            np.ones(problem.num_stages, dtype=np.int64),
        )
        for name, allocator in ALLOCATORS:
            start = time.perf_counter()
            allocation = allocator(problem)
            elapsed_ms = 1000.0 * (time.perf_counter() - start)
            result.rows.append({
                "dataset": dataset,
                "policy": name,
                "makespan (us)": allocation.makespan_ns / 1e3,
                "speedup vs serial": baseline / allocation.makespan_ns,
                "decision time (ms)": elapsed_ms,
            })
    return result
