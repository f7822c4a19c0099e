"""Algorithm 1: max-heap based greedy crossbar allocation (Section V-B).

Two indexed max-heaps drive the loop, exactly as in the paper:

* ``H_p`` holds each stage's current effective execution time — its top is
  the pipeline's longest stage, the one whose time multiplies ``(B-1)`` in
  Eq. (6);
* ``H_v`` holds each stage's *adjust value*: the makespan reduction per
  crossbar of buying one more replica.

Each iteration considers the best plain candidate (``H_v.top``) and the
longest stage (``H_p.top``, whose replica also shrinks the ``(B-1)*T_max``
term), buys one replica for the better of the two, updates both heaps
top-down, and decrements the free-crossbar budget — repeating until the
budget is exhausted or no stage can improve (cap reached / unaffordable).

Decision time is O(total replicas x log S), versus the multi-day dynamic
programming of prior work (the paper's [27]); the DP stand-in lives in
:mod:`repro.allocation.baselines` for the overhead comparison.

The public :func:`greedy_allocation` runs the run-skipping engine of
:mod:`repro.allocation.engine` — decision-identical to the one-purchase-
per-iteration loop retained here as :func:`greedy_allocation_reference`,
but an order of magnitude faster at synthesis-scale budgets — and
memoises results through the content-keyed artifact cache
(:mod:`repro.perf.cache`, ``"allocation"`` namespace) so repeated
accelerator builds and warm sweeps skip the search entirely.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.engine import greedy_allocation_counts
from repro.allocation.heap import FlatMaxKeys
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.perf import profile
from repro.perf.cache import cache_key
from repro.runtime import current_session

#: Cache namespace shared by every memoised allocator result.
ALLOCATION_NAMESPACE = "allocation"

#: Engine revision stamped into cache keys and provenance: bump when the
#: decision sequence could change, so stale entries can never resurface.
_ENGINE_REVISION = "run-skipping-v1"


@profile.phase(profile.PHASE_ALLOCATION)
def greedy_allocation(
    problem: AllocationProblem,
    include_max_bonus: bool = True,
    *,
    memoize: bool = True,
) -> AllocationResult:
    """Run Algorithm 1 and return the replica assignment.

    ``include_max_bonus=False`` drops the ``(B-1) * T_max`` term from the
    adjust values (used by the exhaustive baseline's refinement step and
    by ablation benchmarks).

    The default path runs the run-skipping engine and routes the result
    through the two-tier artifact cache, keyed on the problem's
    :meth:`~AllocationProblem.content_fingerprint` — two identical
    problems (same stages, times, costs, budget, caps, ``B``, floors)
    share one search regardless of where they were built.  Pass
    ``memoize=False`` for an honest cold search (ablation timing).
    """
    if not memoize:
        return AllocationResult(
            problem=problem,
            replicas=greedy_allocation_counts(problem, include_max_bonus),
            strategy="gopim-greedy",
        )
    key = cache_key(
        "greedy", _ENGINE_REVISION,
        problem.content_fingerprint(), bool(include_max_bonus),
    )

    def compute() -> dict:
        return {
            "replicas": greedy_allocation_counts(problem, include_max_bonus),
            "strategy": "gopim-greedy",
            "provenance": {
                "engine": _ENGINE_REVISION,
                "include_max_bonus": bool(include_max_bonus),
                "problem_fingerprint": problem.content_fingerprint(),
            },
        }

    cached = current_session().cache.get_or_compute(
        ALLOCATION_NAMESPACE, key, compute,
    )
    # Copy on the way out: the memory tier hands back the stored object,
    # and results must not alias each other.
    return AllocationResult(
        problem=problem,
        replicas=np.array(cached["replicas"], dtype=np.int64),
        strategy=cached["strategy"],
    )


@profile.phase(profile.PHASE_ALLOCATION)
def greedy_allocation_reference(
    problem: AllocationProblem,
    include_max_bonus: bool = True,
) -> AllocationResult:
    """One-purchase-per-iteration Algorithm 1 — the equivalence oracle.

    Every optimisation of the hot path (the run-skipping engine, the
    batched ``allocate_many``) is pinned against this loop: same decision
    sequence, bit-identical replica vectors, asserted by
    ``tests/allocation/test_engine_equivalence.py`` and re-measured by
    ``benchmarks/perf/bench_hotpaths.py``.

    Both heaps are :class:`~repro.allocation.heap.FlatMaxKeys` stores.
    They answer the paper's indexed max-heap queries under its total
    order ``(key, -insertion_order)``, so the decision sequence is the
    indexed heap's (that heap is an oracle in
    ``tests/oracles/allocation.py``, compared with the flat store by
    ``tests/allocation/test_greedy_stores.py``); the flat store is much
    faster at the allocator's stage counts.
    """
    n = problem.num_stages
    # Python scalars throughout the loop: element-wise numpy indexing and
    # numpy scalar arithmetic dominate the original profile, and IEEE
    # float64 ops give bit-identical results either way.
    replicas = [1] * n
    budget = int(problem.budget)
    times = problem.times_ns.tolist()
    floors = (
        problem.fixed_floors_ns.tolist()
        if problem.fixed_floors_ns is not None
        else [0.0] * n
    )
    caps = problem.replica_caps.tolist()
    costs = problem.crossbars_per_replica.tolist()

    heap_v = FlatMaxKeys()
    heap_p = FlatMaxKeys()
    for stage in range(n):
        base = times[stage]
        gain = 0.0 if caps[stage] <= 1 else base - base / 2
        heap_v.push(gain / costs[stage], stage)
        heap_p.push(base + floors[stage], stage)

    b_minus_1 = problem.num_microbatches - 1
    use_bonus = include_max_bonus and b_minus_1 > 0
    unaffordable: set = set()
    while budget > 0:
        # Candidate A: best plain adjust value.
        value_a, stage_a = heap_v.top()
        # Candidate B: the longest stage, whose replica also cuts T_max.
        chosen = stage_a
        chosen_value = value_a
        if use_bonus:
            _, stage_p = heap_p.top()
            count_p = replicas[stage_p]
            base_p = times[stage_p]
            gain_p = (
                base_p / count_p - base_p / (count_p + 1)
                if count_p < caps[stage_p] else 0.0
            )
            if gain_p > 0 and stage_p not in unaffordable:
                old_max = base_p / count_p + floors[stage_p]
                new_time = base_p / (count_p + 1) + floors[stage_p]
                second = heap_p.max_excluding(stage_p)
                delta_max = max(0.0, old_max - max(new_time, second))
                value_p = (gain_p + b_minus_1 * delta_max) / costs[stage_p]
                if value_p > chosen_value:
                    chosen = stage_p
                    chosen_value = value_p

        if chosen_value <= 0.0:
            break  # nobody can improve (caps reached)
        cost = costs[chosen]
        if cost > budget:
            # Cannot afford the best stage any more; permanently disable it
            # and retry with the rest.
            unaffordable.add(chosen)
            heap_v.update(chosen, 0.0)
            if heap_v.top()[0] <= 0.0:
                break
            continue

        count = replicas[chosen] + 1
        replicas[chosen] = count
        budget -= cost
        base_c = times[chosen]
        new_gain = (
            base_c / count - base_c / (count + 1)
            if count < caps[chosen] else 0.0
        )
        heap_v.update(
            chosen, new_gain / cost if cost <= budget else 0.0,
        )
        heap_p.update(chosen, base_c / count + floors[chosen])
        if heap_v.top()[0] <= 0.0:
            break

    return AllocationResult(
        problem=problem,
        replicas=np.array(replicas, dtype=np.int64),
        strategy="gopim-greedy",
    )
