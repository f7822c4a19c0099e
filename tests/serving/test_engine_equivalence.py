"""Byte-identity gate: batched timeline engine vs the scalar event loop.

Same contract as the pipeline/functional/allocator fast paths, but
stricter: the serving engines run integer-nanosecond arithmetic, so the
comparison is exact equality of every array — no tolerances anywhere.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.runtime import RunSpec, Session
from repro.serving import (
    ServingSpec,
    ServingStats,
    run_serving,
    simulate_serving,
)
from repro.serving.service import request_degrees
from tests.oracles.serving import simulate_serving_reference


def identical(a, b):
    assert a.balancer == b.balancer
    assert a.num_servers == b.num_servers
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.ends, b.ends)


def random_case(seed, num_stages, num_batches):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 5_000, num_batches)
    dispatch = np.cumsum(gaps).astype(np.int64)
    times = rng.integers(
        0, 10_000, (num_stages, num_batches),
    ).astype(np.int64)
    return dispatch, times


@pytest.mark.parametrize("balancer", ["rr", "jsq"])
@pytest.mark.parametrize("num_servers", [1, 3, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_timelines_byte_identical(balancer, num_servers, seed):
    dispatch, times = random_case(seed, num_stages=4, num_batches=500)
    fast = simulate_serving(dispatch, times, num_servers, balancer)
    ref = simulate_serving_reference(dispatch, times, num_servers, balancer)
    identical(fast, ref)


@pytest.mark.parametrize("balancer", ["rr", "jsq"])
def test_degenerate_shapes(balancer):
    # One batch, one server; and zero service times (pure pass-through).
    one = simulate_serving(
        np.array([5], dtype=np.int64),
        np.array([[3], [4]], dtype=np.int64),
        1, balancer,
    )
    assert one.completions_ns[0] == 12
    dispatch, _ = random_case(9, 2, 50)
    zeros = np.zeros((2, 50), dtype=np.int64)
    fast = simulate_serving(dispatch, zeros, 2, balancer)
    ref = simulate_serving_reference(dispatch, zeros, 2, balancer)
    identical(fast, ref)
    assert np.array_equal(fast.completions_ns, dispatch)


def test_simultaneous_dispatches_tie_break():
    # Equal dispatch times force the JSQ tie rule (lowest index first).
    dispatch = np.zeros(12, dtype=np.int64)
    times = np.full((2, 12), 100, dtype=np.int64)
    fast = simulate_serving(dispatch, times, 4, "jsq")
    ref = simulate_serving_reference(dispatch, times, 4, "jsq")
    identical(fast, ref)
    # First four batches must land on servers 0..3 in order.
    assert list(fast.assignment[:4]) == [0, 1, 2, 3]


def test_validation():
    dispatch, times = random_case(0, 2, 10)
    with pytest.raises(ExperimentError):
        simulate_serving(dispatch, times, 0)
    with pytest.raises(ExperimentError):
        simulate_serving(dispatch, times, 2, "random")
    with pytest.raises(ExperimentError):
        simulate_serving(dispatch[:-1], times, 2)
    with pytest.raises(ExperimentError):
        simulate_serving(dispatch[::-1].copy(), times, 2)


@pytest.fixture(scope="module")
def session():
    return Session(RunSpec(seed=0))


@pytest.mark.parametrize("process", ["poisson", "mmpp"])
@pytest.mark.parametrize("balancer", ["rr", "jsq"])
def test_end_to_end_byte_identical(session, process, balancer):
    # The acceptance gate: full run_serving path, both arrival processes.
    spec = ServingSpec(
        dataset="ddi",
        num_requests=8_000,
        process=process,
        load=0.9,
        balancer=balancer,
    )
    run = run_serving(session, spec)
    # Rebuild the run's batch costs and replay them on the scalar loop.
    edge_prefix = np.concatenate(
        [[0], np.cumsum(request_degrees(session, spec), dtype=np.int64)]
    )
    batch_edges = np.diff(edge_prefix[run.plan.boundaries])
    times = run.system.batch_times_ns(run.plan.sizes(), batch_edges)
    ref = simulate_serving_reference(
        run.plan.dispatch_ns, times, run.system.num_servers, spec.balancer,
    )
    identical(run.timeline, ref)
    assert run.stats == ServingStats.from_simulation(
        run.arrivals_ns, run.plan, ref, stage_names=run.system.stage_names,
    )
