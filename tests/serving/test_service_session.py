"""`run_serving` prices batches on the backend of the session it is given."""

import pytest

from repro.runtime import RunSpec, Session
from repro.serving import ServingSpec, run_serving

SPEC = ServingSpec(
    dataset="ddi", num_requests=4_000, load=0.8, balancer="jsq",
)


@pytest.fixture(scope="module")
def sessions():
    return {
        backend: Session(RunSpec(seed=0, backend=backend))
        for backend in ("analytic", "trace")
    }


def test_trace_session_prices_on_trace_outside_any_scope(sessions):
    analytic = run_serving(sessions["analytic"], SPEC).stats
    traced = run_serving(sessions["trace"], SPEC).stats
    assert traced != analytic
    # Lane quantisation only rounds service times up.
    assert traced.latency_mean_ns > analytic.latency_mean_ns


def test_stats_do_not_depend_on_the_callers_session(sessions):
    trace = sessions["trace"]
    outside = run_serving(trace, SPEC).stats
    with trace.use():
        inside = run_serving(trace, SPEC).stats
    with sessions["analytic"].use():
        under_other = run_serving(trace, SPEC).stats
    assert inside == outside
    assert under_other == outside
