"""Batch-formation invariants across the three trigger policies, and
byte identity to the whole-timeline-search oracle."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.runtime import RunSpec, Session
from repro.serving import ServingSpec, run_serving
from repro.serving.arrivals import arrival_times_ns, unit_mmpp
from repro.serving.batching import BatchingPolicy, BatchPlan, form_batches
from tests.oracles.serving import batch_of_request, form_batches_reference


@pytest.fixture(scope="module")
def arrivals():
    pattern = unit_mmpp(20_000, np.random.default_rng(0))
    return arrival_times_ns(pattern, 1e6)  # mean gap 1000 ns


POLICIES = [
    BatchingPolicy("size", max_batch=64),
    BatchingPolicy("timeout", timeout_ns=5_000),
    BatchingPolicy("hybrid", max_batch=64, timeout_ns=5_000),
    BatchingPolicy("hybrid", max_batch=8, timeout_ns=100_000),
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label())
class TestInvariants:
    def test_partition_is_exact(self, arrivals, policy):
        plan = form_batches(arrivals, policy)
        assert plan.num_requests == arrivals.size
        assert plan.boundaries[0] == 0
        assert plan.boundaries[-1] == arrivals.size
        assert np.all(np.diff(plan.boundaries) >= 1)
        assert plan.sizes().sum() == arrivals.size

    def test_dispatch_not_before_last_member(self, arrivals, policy):
        plan = form_batches(arrivals, policy)
        last = arrivals[plan.boundaries[1:] - 1]
        assert np.all(plan.dispatch_ns >= last)

    def test_dispatch_nondecreasing(self, arrivals, policy):
        plan = form_batches(arrivals, policy)
        assert np.all(np.diff(plan.dispatch_ns) >= 0)

    def test_batch_of_request_matches_boundaries(self, arrivals, policy):
        plan = form_batches(arrivals, policy)
        owner = batch_of_request(plan)
        assert owner.shape == (arrivals.size,)
        for k in (0, plan.num_batches // 2, plan.num_batches - 1):
            lo, hi = plan.boundaries[k], plan.boundaries[k + 1]
            assert np.all(owner[lo:hi] == k)


class TestPolicySemantics:
    def test_size_batches_are_full(self, arrivals):
        plan = form_batches(arrivals, BatchingPolicy("size", max_batch=64))
        sizes = plan.sizes()
        assert np.all(sizes[:-1] == 64)
        assert sizes[-1] <= 64

    def test_size_and_hybrid_respect_cap(self, arrivals):
        for kind in ("size", "hybrid"):
            policy = BatchingPolicy(kind, max_batch=32, timeout_ns=10_000)
            assert form_batches(arrivals, policy).sizes().max() <= 32

    def test_timeout_bounds_formation_wait(self, arrivals):
        timeout = 5_000
        policy = BatchingPolicy("timeout", timeout_ns=timeout)
        plan = form_batches(arrivals, policy)
        first = arrivals[plan.boundaries[:-1]]
        assert np.all(plan.dispatch_ns == first + timeout)

    def test_hybrid_dispatches_early_when_full(self):
        # 100 back-to-back arrivals, huge timeout: the size trigger must
        # fire and dispatch at the 10th member's arrival, not the flush.
        arrivals = np.arange(100, dtype=np.int64)
        policy = BatchingPolicy(
            "hybrid", max_batch=10, timeout_ns=10_000_000,
        )
        plan = form_batches(arrivals, policy)
        assert plan.num_batches == 10
        assert np.all(plan.sizes() == 10)
        assert np.all(plan.dispatch_ns == arrivals[9::10])

    def test_hybrid_flushes_partial_on_timeout(self):
        # Two bursts separated by far more than the timeout.
        arrivals = np.array([0, 10, 20, 1_000_000], dtype=np.int64)
        policy = BatchingPolicy("hybrid", max_batch=64, timeout_ns=500)
        plan = form_batches(arrivals, policy)
        assert plan.num_batches == 2
        assert list(plan.sizes()) == [3, 1]
        assert plan.dispatch_ns[0] == 500

    def test_validation(self):
        with pytest.raises(ExperimentError):
            BatchingPolicy("fifo")
        with pytest.raises(ExperimentError):
            BatchingPolicy("size", max_batch=0)
        with pytest.raises(ExperimentError):
            BatchingPolicy("timeout", timeout_ns=0)
        with pytest.raises(ExperimentError):
            form_batches(
                np.array([5, 1], dtype=np.int64), BatchingPolicy("size"),
            )
        with pytest.raises(ExperimentError):
            BatchPlan(
                boundaries=np.array([0, 2, 2]),
                dispatch_ns=np.array([10, 20]),
            )


def assert_matches_oracle(arrivals, policy):
    plan = form_batches(arrivals, policy)
    oracle = form_batches_reference(arrivals, policy)
    assert plan.boundaries.tobytes() == oracle.boundaries.tobytes()
    assert plan.dispatch_ns.tobytes() == oracle.dispatch_ns.tobytes()
    return plan


#: serving-scale's policy, then mostly-full small batches, mostly
#: timeout flushes, and the two single-trigger policies.
ORACLE_POLICIES = [
    BatchingPolicy("hybrid", max_batch=64, timeout_ns=50_000),
    BatchingPolicy("hybrid", max_batch=8, timeout_ns=100_000),
    BatchingPolicy("hybrid", max_batch=64, timeout_ns=2_000),
    BatchingPolicy("timeout", timeout_ns=5_000),
    BatchingPolicy("size", max_batch=64),
]

#: The end-to-end benchmark's serving-scale arrival streams.
SERVING_SCALE_STREAMS = [
    (process, load)
    for process in ("poisson", "mmpp")
    for load in (0.4, 0.6, 0.8, 0.9, 0.97)
]


@pytest.fixture(scope="module")
def serving_streams():
    session = Session(RunSpec(seed=0))
    return {
        (process, load): run_serving(session, ServingSpec(
            num_requests=20_000, process=process, load=load, seed=0,
        )).arrivals_ns
        for process, load in SERVING_SCALE_STREAMS
    }


@pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=lambda p: p.label())
@pytest.mark.parametrize(
    "stream", SERVING_SCALE_STREAMS, ids=lambda s: f"{s[0]}-{s[1]}",
)
def test_serving_scale_streams_match_oracle(serving_streams, stream, policy):
    assert_matches_oracle(serving_streams[stream], policy)


class TestOracleEdgeCases:
    def test_last_member_on_the_deadline_size_triggers(self):
        # The 4th arrival lands exactly on the first window's deadline,
        # with two more at the same instant: the batch is full at 4.
        arrivals = np.array([0, 10, 20, 30, 30, 30, 45], dtype=np.int64)
        policy = BatchingPolicy("hybrid", max_batch=4, timeout_ns=30)
        plan = assert_matches_oracle(arrivals, policy)
        assert list(plan.boundaries) == [0, 4, 7]
        assert list(plan.dispatch_ns) == [30, 60]

    def test_last_member_one_nanosecond_late_times_out(self):
        arrivals = np.array([0, 10, 20, 31, 40], dtype=np.int64)
        policy = BatchingPolicy("hybrid", max_batch=4, timeout_ns=30)
        plan = assert_matches_oracle(arrivals, policy)
        assert list(plan.boundaries) == [0, 3, 5]
        assert list(plan.dispatch_ns) == [30, 61]

    @pytest.mark.parametrize(
        "policy", ORACLE_POLICIES, ids=lambda p: p.label(),
    )
    def test_all_equal_timestamps(self, policy):
        plan = assert_matches_oracle(np.full(1_000, 7, np.int64), policy)
        assert plan.num_requests == 1_000

    @pytest.mark.parametrize(
        "policy", ORACLE_POLICIES, ids=lambda p: p.label(),
    )
    def test_fewer_requests_than_max_batch(self, policy):
        arrivals = np.arange(0, 10_000, 1_000, dtype=np.int64)
        assert_matches_oracle(arrivals, policy)

    @pytest.mark.parametrize("kind", ["hybrid", "size"])
    def test_partial_last_batch(self, kind):
        arrivals = np.arange(1_000, dtype=np.int64)  # 1000 % 64 == 40
        policy = BatchingPolicy(kind, max_batch=64, timeout_ns=1_000_000)
        plan = assert_matches_oracle(arrivals, policy)
        assert plan.sizes()[-1] == 40

    @pytest.mark.parametrize("kind", ["hybrid", "size"])
    def test_max_batch_one(self, kind):
        arrivals = np.array([0, 0, 5, 9, 9, 100], dtype=np.int64)
        policy = BatchingPolicy(kind, max_batch=1, timeout_ns=50)
        plan = assert_matches_oracle(arrivals, policy)
        assert np.all(plan.sizes() == 1)
        assert list(plan.dispatch_ns) == list(arrivals)

    @pytest.mark.parametrize("kind", ["hybrid", "timeout"])
    def test_deadline_beyond_int64_raises(self, kind):
        arrivals = np.array([0, 2**62], dtype=np.int64)
        policy = BatchingPolicy(kind, max_batch=4, timeout_ns=2**62)
        with pytest.raises(ExperimentError, match="int64"):
            form_batches(arrivals, policy)

    @pytest.mark.parametrize("kind", ["hybrid", "timeout"])
    def test_one_nanosecond_timeout(self, kind):
        arrivals = np.array([0, 0, 1, 1, 2, 4, 4, 5, 7], dtype=np.int64)
        policy = BatchingPolicy(kind, max_batch=3, timeout_ns=1)
        assert_matches_oracle(arrivals, policy)


def test_dense_random_streams_match_oracle():
    # Gaps of 0-3 ns against 1-12 ns timeouts put many windows' last
    # members exactly on, or one nanosecond past, their deadlines.
    rng = np.random.default_rng(0)
    for _ in range(100):
        arrivals = np.cumsum(rng.integers(0, 4, int(rng.integers(1, 300))))
        for kind in ("size", "timeout", "hybrid"):
            policy = BatchingPolicy(
                kind, max_batch=int(rng.integers(1, 9)),
                timeout_ns=int(rng.integers(1, 13)),
            )
            assert_matches_oracle(arrivals, policy)
