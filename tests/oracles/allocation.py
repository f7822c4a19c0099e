"""Oracle for the exhaustive allocator: the original Python-loop sweep.

:func:`repro.allocation.baselines.exhaustive_allocation` bisects the
feasibility frontier, broadcasts over the ``(candidates, stages)`` grid
and dedupes equal base replica vectors; the loop here visits every
candidate ``t_max`` in descending order.  The winning allocations must
be identical.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.baselines import (
    _keep_best_composition,
    _refinement_sub_problem,
    serial_allocation,
)
from repro.allocation.greedy import greedy_allocation
from repro.allocation.problem import AllocationProblem, AllocationResult


def _refine_and_keep_best(
    problem: AllocationProblem,
    base_replicas: np.ndarray,
    cost: int,
    best: AllocationResult,
    best_makespan: float,
):
    """Spend the leftover budget with the greedy; keep a strict improvement."""
    sub_problem = _refinement_sub_problem(problem, base_replicas, cost)
    refined = greedy_allocation(sub_problem, include_max_bonus=True)
    return _keep_best_composition(
        problem, base_replicas, refined, best, best_makespan,
    )


def exhaustive_allocation_reference(
    problem: AllocationProblem,
) -> AllocationResult:
    """The original Python-loop T_max sweep (equivalence oracle).

    For every candidate bottleneck time (each stage's time at each feasible
    replica count), compute the cheapest assignment achieving it, spend any
    leftover budget with the plain greedy, and keep the best makespan.
    Complexity is O(sum(caps) * S) — fine for tests, far too slow for the
    multi-day scales the paper quotes for real DP on *products*.
    """
    floors = (
        problem.fixed_floors_ns
        if problem.fixed_floors_ns is not None
        else np.zeros(problem.num_stages)
    )
    candidates = set()
    for stage in range(problem.num_stages):
        cap = int(problem.replica_caps[stage])
        base = problem.times_ns[stage]
        # Sample replica counts geometrically to bound the sweep size.
        r = 1
        while r <= cap:
            candidates.add(base / r + floors[stage])
            r = max(r + 1, int(r * 1.1))
        candidates.add(base / cap + floors[stage])

    best: AllocationResult = serial_allocation(problem)
    best_makespan = best.makespan_ns
    for t_max in sorted(candidates, reverse=True):
        replicas = np.ones(problem.num_stages, dtype=np.int64)
        feasible = True
        for stage in range(problem.num_stages):
            need = problem.times_ns[stage]
            available = t_max - floors[stage]
            if need <= 0:
                continue
            if available <= 0:
                feasible = False
                break
            required = int(np.ceil(need / available))
            if required > problem.replica_caps[stage]:
                feasible = False
                break
            replicas[stage] = max(1, required)
        if not feasible:
            continue
        cost = problem.crossbar_cost(replicas)
        if cost > problem.budget:
            continue
        # Spend the leftover on the plain sum-term greedy.
        best, best_makespan = _refine_and_keep_best(
            problem, replicas, cost, best, best_makespan,
        )
    if best.strategy != "exhaustive":
        best = AllocationResult(
            problem=problem, replicas=best.replicas, strategy="exhaustive",
        )
    return best
