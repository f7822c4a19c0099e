"""Run-skipping engine and batched walker vs the reference loop.

Algorithm 1's optimised paths promise *bit-identical* results, not
approximately-equal ones: :func:`greedy_allocation` (run-skipping sorted
stream) and :func:`allocate_many` (lock-step ``[P, S]`` batch) must
reproduce the reference loop's decision sequence exactly — including the
unaffordable-stage events, cap saturation, post-purchase budget zeroing,
and the three early-break conditions.  These tests sweep a randomized
problem matrix chosen to hit every one of those paths and compare raw
replica bytes.
"""

import numpy as np
import pytest

import repro.allocation.engine as engine_module
from repro.allocation.batched import allocate_many
from repro.allocation.engine import greedy_allocation_counts
from repro.allocation.greedy import (
    greedy_allocation,
    greedy_allocation_reference,
)
from repro.allocation.problem import AllocationProblem


def make_problem(
    num_stages,
    budget,
    seed=0,
    heavy=True,
    cost_range=(1, 8),
    num_microbatches=32,
    cap=1 << 20,
    with_floors=False,
    zero_time_fraction=0.0,
):
    rng = np.random.default_rng(seed)
    if heavy:
        times = np.exp(rng.normal(8.0, 2.5, num_stages))
    else:
        times = rng.uniform(100.0, 50_000.0, num_stages)
    if zero_time_fraction:
        times = np.where(rng.random(num_stages) < zero_time_fraction, 0.0, times)
    if cap <= 64:
        caps = rng.integers(1, cap + 1, num_stages)
    else:
        caps = np.full(num_stages, cap, dtype=np.int64)
    return AllocationProblem(
        stage_names=[f"S{i}" for i in range(num_stages)],
        times_ns=times,
        crossbars_per_replica=rng.integers(
            cost_range[0], cost_range[1] + 1, num_stages,
        ),
        budget=budget,
        replica_caps=caps,
        num_microbatches=num_microbatches,
        fixed_floors_ns=(
            rng.uniform(0.0, 500.0, num_stages) if with_floors else None
        ),
    )


def _matrix():
    """The randomized matrix: small enough to run fast, wide enough to
    hit unaffordable events, cap saturation, zero-time stages, floors,
    the bonus-dead switch, and both bonus settings."""
    cases = []
    seed = 0
    for num_stages in (1, 2, 3, 9, 33):
        for budget in (0, 1, 7, 100, 2500):
            for cost_range in ((1, 1), (1, 4), (8, 64)):
                for num_microbatches in (1, 4, 32):
                    for cap in (1 << 20, 6, 1):
                        seed += 1
                        cases.append(dict(
                            num_stages=num_stages,
                            budget=budget,
                            seed=seed,
                            heavy=(seed % 2 == 0),
                            cost_range=cost_range,
                            num_microbatches=num_microbatches,
                            cap=cap,
                            with_floors=(seed % 3 == 0),
                            zero_time_fraction=(0.3 if seed % 4 == 0 else 0.0),
                        ))
    return cases


@pytest.mark.parametrize("include_max_bonus", [True, False])
def test_engine_bit_identical_across_matrix(include_max_bonus):
    for kwargs in _matrix():
        problem = make_problem(**kwargs)
        reference = greedy_allocation_reference(problem, include_max_bonus)
        counts = greedy_allocation_counts(problem, include_max_bonus)
        assert reference.replicas.tobytes() == counts.tobytes(), kwargs


@pytest.mark.parametrize("include_max_bonus", [True, False])
def test_allocate_many_bit_identical_to_serial(include_max_bonus):
    # Mixed widths, budgets, caps, and floors in one batch: padding must
    # never leak between problems.
    problems = [make_problem(**kwargs) for kwargs in _matrix()[::7]]
    batched = allocate_many(
        problems, include_max_bonus=include_max_bonus, memoize=False,
    )
    for problem, result in zip(problems, batched):
        reference = greedy_allocation_reference(problem, include_max_bonus)
        assert reference.replicas.tobytes() == result.replicas.tobytes()
        assert result.strategy == "gopim-greedy"


def test_public_greedy_matches_reference_cold_and_warm():
    problem = make_problem(17, 900, seed=5, with_floors=True)
    reference = greedy_allocation_reference(problem)
    cold = greedy_allocation(problem, memoize=False)
    warm = greedy_allocation(problem)  # may or may not hit the cache
    assert reference.replicas.tobytes() == cold.replicas.tobytes()
    assert reference.replicas.tobytes() == warm.replicas.tobytes()


def test_unaffordable_tail_matches():
    # One expensive stage dominates: the reference repeatedly elects it,
    # marks it unaffordable, and falls back — the engine must replay the
    # same events.
    problem = AllocationProblem(
        stage_names=["cheap", "dear"],
        times_ns=np.array([10.0, 1e6]),
        crossbars_per_replica=np.array([1, 500], dtype=np.int64),
        budget=40,
        replica_caps=np.array([1 << 20, 1 << 20], dtype=np.int64),
        num_microbatches=16,
    )
    reference = greedy_allocation_reference(problem)
    counts = greedy_allocation_counts(problem, True)
    assert reference.replicas.tobytes() == counts.tobytes()
    assert counts[1] == 1  # never affordable


def test_cap_saturation_breaks_identically():
    problem = make_problem(6, 10 ** 6, seed=9, cap=5)
    for bonus in (True, False):
        reference = greedy_allocation_reference(problem, bonus)
        counts = greedy_allocation_counts(problem, bonus)
        assert reference.replicas.tobytes() == counts.tobytes()
        assert np.all(counts <= problem.replica_caps)


def test_wave_regeneration_and_truncation(monkeypatch):
    # Force tiny streams so the engine regenerates many waves and
    # exercises the coverage-targeted truncation, then check identity.
    monkeypatch.setattr(engine_module, "_MAX_FULL_ENTRIES", 48)
    for seed in range(6):
        for bonus in (True, False):
            problem = make_problem(
                11, 4000, seed=seed, cost_range=(1, 3),
                num_microbatches=(8 if bonus else 1),
            )
            reference = greedy_allocation_reference(problem, bonus)
            counts = greedy_allocation_counts(problem, bonus)
            assert reference.replicas.tobytes() == counts.tobytes()


def test_synthesis_scale_spot_check():
    # One honest large case per mode (bonus-live scalar walk and
    # bonus-free vectorized consumption) at a run-skipping-relevant
    # budget.
    for num_microbatches, bonus in ((32, True), (32, False), (1, True)):
        problem = make_problem(
            64, 30_000, seed=13, cost_range=(1, 4),
            num_microbatches=num_microbatches,
        )
        reference = greedy_allocation_reference(problem, bonus)
        counts = greedy_allocation_counts(problem, bonus)
        assert reference.replicas.tobytes() == counts.tobytes()
