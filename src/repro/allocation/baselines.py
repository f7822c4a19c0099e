"""Baseline crossbar-allocation policies the paper compares against.

* :func:`uniform_allocation` — PipeLayer [42]: the same replica count for
  every stage (also the behaviour of SlimGNN-like's space-proportional
  policy: giving each stage crossbars proportional to its footprint yields
  equal replica counts).
* :func:`fixed_ratio_allocation` — ReGraphX [2]: a fixed CO:AG crossbar
  ratio (1:2), applied between the weight-mapped (CO/LC) and
  feature-mapped (AG/GC) stage families.
* :func:`combination_only_allocation` — ReFlip [23]: replicas only for
  Combination-family stages.
* :func:`exhaustive_allocation` — a T_max-sweep exact(-ish) optimiser
  standing in for the dynamic-programming allocators of prior work (the
  paper's [27]); orders of magnitude slower than Algorithm 1 but a useful
  optimality reference for tests and the Table VII-style overhead story.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.allocation.batched import allocate_many
from repro.allocation.greedy import _ENGINE_REVISION, ALLOCATION_NAMESPACE
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.perf import profile
from repro.perf.cache import cache_key
from repro.runtime import current_session

#: ReGraphX's crossbar split: weight-mapped (CO/LC) to feature-mapped
#: (AG/GC) stages as 1:2.
WEIGHT_STAGE_SHARE = 1.0
FEATURE_STAGE_SHARE = 2.0
FEATURE_STAGE_PREFIXES = ("AG", "GC")


def serial_allocation(problem: AllocationProblem) -> AllocationResult:
    """No replicas anywhere (the Serial baseline)."""
    return AllocationResult(
        problem=problem,
        replicas=np.ones(problem.num_stages, dtype=np.int64),
        strategy="serial",
    )


def uniform_allocation(problem: AllocationProblem) -> AllocationResult:
    """Same replica count for all stages, as large as the budget allows."""
    costs = problem.crossbars_per_replica
    caps = problem.replica_caps
    per_round = int(costs.sum())
    # Binary search the largest uniform count r with sum((min(r,cap)-1)*X)
    # within budget.
    lo, hi = 1, max(1, int(problem.budget // per_round) + 1 + int(caps.max()))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        cost = int(((np.minimum(mid, caps) - 1) * costs).sum())
        if cost <= problem.budget:
            lo = mid
        else:
            hi = mid - 1
    replicas = np.minimum(lo, caps).astype(np.int64)
    return AllocationResult(problem=problem, replicas=replicas, strategy="uniform")


def fixed_ratio_allocation(problem: AllocationProblem) -> AllocationResult:
    """ReGraphX's fixed CO:AG = 1:2 crossbar split.

    The budget is divided between the two stage families in that ratio;
    within a family every stage gets an equal crossbar share, converted
    to replicas by its per-replica cost.
    """
    is_feature = np.array([
        name.startswith(FEATURE_STAGE_PREFIXES) for name in problem.stage_names
    ])
    total_share = WEIGHT_STAGE_SHARE + FEATURE_STAGE_SHARE
    family_budget = {
        True: problem.budget * FEATURE_STAGE_SHARE / total_share,
        False: problem.budget * WEIGHT_STAGE_SHARE / total_share,
    }
    replicas = np.ones(problem.num_stages, dtype=np.int64)
    for family in (True, False):
        members = np.flatnonzero(is_feature == family)
        if members.size == 0:
            continue
        share = family_budget[family] / members.size
        for stage in members:
            extra = int(share // problem.crossbars_per_replica[stage])
            replicas[stage] = min(
                1 + extra, int(problem.replica_caps[stage]),
            )
    # The floor() conversions guarantee the budget is respected.
    return AllocationResult(
        problem=problem, replicas=replicas, strategy="fixed-ratio-1:2",
    )


def combination_only_allocation(problem: AllocationProblem) -> AllocationResult:
    """ReFlip: replicas only for Combination-family (CO/LC) stages."""
    names = problem.stage_names
    weight_members = np.flatnonzero(np.array([
        name.startswith(("CO", "LC")) for name in names
    ]))
    replicas = np.ones(problem.num_stages, dtype=np.int64)
    if weight_members.size:
        share = problem.budget / weight_members.size
        for stage in weight_members:
            extra = int(share // problem.crossbars_per_replica[stage])
            replicas[stage] = min(
                1 + extra, int(problem.replica_caps[stage]),
            )
    return AllocationResult(
        problem=problem, replicas=replicas, strategy="combination-only",
    )


def _candidate_times(problem: AllocationProblem, floors: np.ndarray) -> set:
    """Candidate bottleneck times: each stage's time at sampled replicas.

    Replica counts are sampled geometrically to bound the sweep size —
    the identical set both the reference and the vectorized optimiser
    sweep.
    """
    # The geometric sample 1, 2, 3, ... r*1.1 ... depends only on the cap,
    # so one sequence up to the largest cap serves every stage.
    max_cap = int(problem.replica_caps.max())
    seq = []
    r = 1
    while r <= max_cap:
        seq.append(r)
        r = max(r + 1, int(r * 1.1))
    counts = np.array(seq, dtype=np.int64)

    candidates = set()
    for stage in range(problem.num_stages):
        cap = int(problem.replica_caps[stage])
        base = problem.times_ns[stage]
        stage_counts = counts[counts <= cap]
        candidates.update((base / stage_counts + floors[stage]).tolist())
        candidates.add(float(base / cap + floors[stage]))
    return candidates


def _refinement_sub_problem(
    problem: AllocationProblem, base_replicas: np.ndarray, cost: int,
) -> AllocationProblem:
    """The leftover-budget problem the greedy refines for one candidate."""
    return AllocationProblem(
        stage_names=problem.stage_names,
        times_ns=problem.times_ns / base_replicas,
        crossbars_per_replica=problem.crossbars_per_replica,
        budget=problem.budget - cost,
        replica_caps=np.maximum(
            1, problem.replica_caps // np.maximum(base_replicas, 1)
        ),
        num_microbatches=problem.num_microbatches,
        fixed_floors_ns=problem.fixed_floors_ns,
    )


def _keep_best_composition(
    problem: AllocationProblem,
    base_replicas: np.ndarray,
    refined: AllocationResult,
    best: AllocationResult,
    best_makespan: float,
):
    """Compose a refinement with its base; keep a strict improvement."""
    # Compose additively: each extra replica bought in the sub-problem
    # costs the same X, so the combined cost never exceeds the budget.
    combined = np.minimum(
        base_replicas + (refined.replicas - 1), problem.replica_caps,
    )
    candidate = AllocationResult(
        problem=problem, replicas=combined, strategy="exhaustive",
    )
    if candidate.makespan_ns < best_makespan:
        return candidate, candidate.makespan_ns
    return best, best_makespan


@profile.phase(profile.PHASE_ALLOCATION)
def exhaustive_allocation(
    problem: AllocationProblem, *, memoize: bool = True,
) -> AllocationResult:
    """T_max-sweep optimiser (dynamic-programming stand-in), vectorized.

    Results are memoised through the content-keyed ``"allocation"`` cache
    (same namespace as :func:`greedy_allocation`), so repeated builds of
    the same problem skip the sweep; pass ``memoize=False`` for an honest
    cold search.
    """
    if not memoize:
        # Fully cold: the per-candidate refinements bypass the cache too,
        # so ablation timings measure a real search.
        return _exhaustive_search(problem, memoize_refinements=False)
    key = cache_key(
        "exhaustive", _ENGINE_REVISION, problem.content_fingerprint(),
    )

    def compute() -> dict:
        result = _exhaustive_search(problem)
        return {
            "replicas": result.replicas,
            "strategy": result.strategy,
            "provenance": {
                "engine": _ENGINE_REVISION,
                "problem_fingerprint": problem.content_fingerprint(),
            },
        }

    cached = current_session().cache.get_or_compute(
        ALLOCATION_NAMESPACE, key, compute,
    )
    return AllocationResult(
        problem=problem,
        replicas=np.array(cached["replicas"], dtype=np.int64),
        strategy=cached["strategy"],
    )


def _exhaustive_search(
    problem: AllocationProblem, memoize_refinements: bool = True,
) -> AllocationResult:
    """The actual sweep behind :func:`exhaustive_allocation`.

    Equivalent to the Python-loop sweep in ``tests/oracles/allocation.py``
    — verified bit-identical by
    ``tests/allocation/test_exhaustive_vectorized.py`` —
    but structured around three observations:

    1. ``required = ceil(times / (t_max - floors))`` for every candidate
       and stage is one broadcast over the ``(candidates, stages)`` grid,
       not a Python double loop.
    2. Feasibility is monotone in ``t_max`` (smaller targets need more
       replicas, higher cost), so the feasibility frontier is found by
       bisection over the descending candidate array instead of probing
       every infeasible candidate.
    3. The greedy refinement of a candidate depends only on its base
       replica vector, and many candidate times round to the same vector
       — deduplicating rows (keeping first-seen, i.e. largest-``t_max``,
       order) skips redundant greedy runs without changing which strict
       improvement wins; the surviving refinements then run as one
       batched :func:`~repro.allocation.batched.allocate_many` walk
       instead of a Python loop of greedy calls.
    """
    floors = (
        problem.fixed_floors_ns
        if problem.fixed_floors_ns is not None
        else np.zeros(problem.num_stages)
    )
    cand = np.array(
        sorted(_candidate_times(problem, floors), reverse=True),
    )
    times = problem.times_ns
    caps = problem.replica_caps
    costs = problem.crossbars_per_replica
    active = times > 0  # stages with no work keep a single replica

    def feasible_replicas(t_max: float) -> Optional[np.ndarray]:
        """Base replica vector for one candidate, or None if infeasible."""
        available = t_max - floors
        if np.any(active & (available <= 0)):
            return None
        required = np.ones(problem.num_stages, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            required[active] = np.ceil(times[active] / available[active])
        if np.any(required > caps):
            return None
        replicas = required.astype(np.int64)
        if int(((replicas - 1) * costs).sum()) > problem.budget:
            return None
        return replicas

    best: AllocationResult = serial_allocation(problem)
    best_makespan = best.makespan_ns
    if cand.size and feasible_replicas(cand[0]) is not None:
        # Bisect the feasibility frontier: cand[0] (the largest target)
        # is always feasible, and feasibility is monotone, so the
        # feasible prefix is cand[:frontier + 1].
        lo, hi = 0, cand.size - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if feasible_replicas(cand[mid]) is not None:
                lo = mid
            else:
                hi = mid - 1
        frontier = lo

        feasible_cand = cand[:frontier + 1]
        # The whole candidates x stages grid in one broadcast.
        available = feasible_cand[:, None] - floors[None, :]
        required = np.ones(
            (feasible_cand.size, problem.num_stages), dtype=np.float64,
        )
        grid = np.broadcast_to(times, required.shape)
        ratio = np.empty_like(required)
        np.divide(grid, available, out=ratio, where=active[None, :])
        np.ceil(ratio, out=required, where=active[None, :])
        replica_rows = required.astype(np.int64)
        row_costs = ((replica_rows - 1) * costs[None, :]).sum(axis=1)

        # Dedupe identical base vectors, preserving first-seen order.
        _, first_seen = np.unique(replica_rows, axis=0, return_index=True)
        order = np.sort(first_seen)
        sub_problems = [
            _refinement_sub_problem(
                problem, replica_rows[index], int(row_costs[index]),
            )
            for index in order
        ]
        refinements = allocate_many(
            sub_problems, include_max_bonus=True,
            memoize=memoize_refinements,
        )
        for index, refined in zip(order, refinements):
            best, best_makespan = _keep_best_composition(
                problem, replica_rows[index], refined, best, best_makespan,
            )
    if best.strategy != "exhaustive":
        best = AllocationResult(
            problem=problem, replicas=best.replicas, strategy="exhaustive",
        )
    return best
