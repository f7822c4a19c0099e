"""FlatMaxKeys vs IndexedMaxHeap: decision-identical priority stores.

Algorithm 1 only ever asks its heaps three questions — ``top()``,
``key_of`` and ``max_excluding`` — all of which are functions of the
current key assignment under the strict total order
``(key, -insertion_order)``.  Any store answering those queries under the
same order therefore drives the greedy through the identical decision
sequence.  These tests pin that equivalence down both at the store level
(random operation sequences with forced ties) and end-to-end (byte-equal
allocations on random problems, with the greedy loop's store swapped for
the heap).  The indexed heap is an oracle, kept in
``tests/oracles/allocation.py``; the loop runs on ``FlatMaxKeys``.
"""

import numpy as np
import pytest

from repro.allocation import greedy
from repro.allocation.greedy import greedy_allocation_reference
from repro.allocation.heap import FlatMaxKeys
from repro.allocation.problem import AllocationProblem
from repro.errors import AllocationError
from tests.oracles.allocation import IndexedMaxHeap


def _random_problem(rng: np.random.Generator) -> AllocationProblem:
    n = int(rng.integers(2, 24))
    times = rng.uniform(10.0, 5000.0, n)
    # Force duplicate times (and hence tied keys) in about half the
    # problems, the regime where tie-breaking order actually matters.
    if rng.random() < 0.5 and n >= 4:
        times[n // 2] = times[0]
        times[-1] = times[1]
    floors = rng.uniform(0.0, 50.0, n) if rng.random() < 0.5 else None
    return AllocationProblem(
        stage_names=[f"S{i}" for i in range(n)],
        times_ns=times,
        crossbars_per_replica=rng.integers(1, 5, n),
        budget=int(rng.integers(0, 200)),
        replica_caps=rng.integers(1, 33, n),
        num_microbatches=int(rng.integers(1, 65)),
        fixed_floors_ns=floors,
    )


@pytest.mark.parametrize("include_max_bonus", [True, False])
def test_greedy_identical_across_stores(include_max_bonus, monkeypatch):
    rng = np.random.default_rng(7)
    problems = [_random_problem(rng) for _ in range(40)]
    flat = [
        greedy_allocation_reference(
            problem, include_max_bonus=include_max_bonus,
        )
        for problem in problems
    ]
    monkeypatch.setattr(greedy, "FlatMaxKeys", IndexedMaxHeap)
    for problem, on_flat in zip(problems, flat):
        on_heap = greedy_allocation_reference(
            problem, include_max_bonus=include_max_bonus,
        )
        np.testing.assert_array_equal(on_flat.replicas, on_heap.replicas)
        assert on_flat.makespan_ns == on_heap.makespan_ns


def test_stores_agree_on_random_query_sequences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 16))
        # Draw keys from a tiny set so ties are the rule, not the
        # exception.
        keys = rng.choice([0.0, 1.0, 2.5, 2.5, 7.0], size=n)
        flat = FlatMaxKeys()
        heap = IndexedMaxHeap()
        for item, key in enumerate(keys):
            flat.push(float(key), item)
            heap.push(float(key), item)
        for _ in range(60):
            op = rng.integers(0, 3)
            item = int(rng.integers(0, n))
            if op == 0:
                new_key = float(rng.choice([0.0, 1.0, 2.5, 7.0]))
                flat.update(item, new_key)
                heap.update(item, new_key)
            elif op == 1:
                assert flat.top() == heap.top()
            else:
                assert flat.max_excluding(item) == heap.max_excluding(item)
            assert flat.key_of(item) == heap.key_of(item)
        assert len(flat) == len(heap) == n


def test_flat_store_contract():
    store = FlatMaxKeys([(3.0, "a"), (5.0, "b")])
    assert store.top() == (5.0, "b")
    assert "a" in store and "c" not in store
    assert store.max_excluding("b") == 3.0
    assert store.max_excluding("b", default=4.0) == 4.0
    store.update("b", -1.0)
    assert store.top() == (3.0, "a")
    only = FlatMaxKeys([(2.0, "x")])
    assert only.max_excluding("x", default=9.0) == 9.0
    with pytest.raises(AllocationError):
        store.push(1.0, "a")
    with pytest.raises(AllocationError):
        store.key_of("missing")
    with pytest.raises(AllocationError):
        store.update("missing", 1.0)
    with pytest.raises(AllocationError):
        store.max_excluding("missing")
    with pytest.raises(AllocationError):
        FlatMaxKeys().top()


def test_flat_store_ties_break_by_insertion_order():
    flat = FlatMaxKeys()
    heap = IndexedMaxHeap()
    for item in range(6):
        flat.push(1.0, item)
        heap.push(1.0, item)
    assert flat.top() == heap.top() == (1.0, 0)
    flat.update(0, 0.0)
    heap.update(0, 0.0)
    assert flat.top() == heap.top() == (1.0, 1)
    assert flat.max_excluding(1) == heap.max_excluding(1) == 1.0


def test_flat_store_growth_past_initial_capacity():
    store = FlatMaxKeys()
    for item in range(100):  # initial capacity is 8; force reallocations
        store.push(float(item), item)
    assert len(store) == 100
    assert store.top() == (99.0, 99)
    assert store.key_of(0) == 0.0
