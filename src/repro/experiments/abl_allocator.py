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

from repro.accelerators.base import AcceleratorModel
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


def build_problem(dataset: str, seed: int = 0) -> AllocationProblem:
    """The crossbar-allocation problem one dataset's workload poses.

    Priced on the current session's hardware, exactly as an accelerator
    run with full updating and the default timing constants poses it.
    """
    workload = current_session().workload(dataset, seed=seed)
    model = AcceleratorModel(name="abl-allocator")
    return model._build_problem(model.build_timing_model(workload))


@experiment(
    "abl-allocator",
    title="Allocation policy ablation: makespan quality vs decision time",
    datasets=("ddi", "collab", "products"),
    cost_hint=1.0,
    wall_clock=True,
    order=140,
)
def run(
    datasets: Sequence[str] = ("ddi", "collab", "products"),
    seed: int = 0,
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
        problem = build_problem(dataset, seed=seed)
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
