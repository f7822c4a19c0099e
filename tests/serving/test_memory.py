"""Memory guard for the serving path: no request-length temporaries.

A request-length float64 or int64 array takes 8 bytes per request.  A
``unit_mmpp`` draw needs one, its gaps, plus one phase's temporaries.
A ``run_serving`` call on an already drawn stream needs two: its int64
timeline, and beside it the float gaps it is rounded from or the
latencies.  Each bound allows half an array more than that, so one
more request-length temporary fails it.  Peaks are measured with
:mod:`tracemalloc`, which NumPy reports its buffers to.
"""

import tracemalloc

import numpy as np
import pytest

from repro.perf.cache import ArtifactCache
from repro.runtime import RunSpec, Session
from repro.serving import ServingSpec, run_serving
from repro.serving.arrivals import unit_mmpp

N = 100_000
ARRAY_BYTES = 8 * N


def peak_arrays(fn):
    """Peak bytes ``fn()`` allocates on top of what is live, in arrays."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - live) / ARRAY_BYTES
    finally:
        if started:
            tracemalloc.stop()


def test_mmpp_draw_holds_one_request_array():
    peak = peak_arrays(lambda: unit_mmpp(N, np.random.default_rng(0)))
    assert peak <= 1.5, f"{peak:.2f} request arrays"


@pytest.mark.parametrize("process", ["poisson", "mmpp"])
def test_warm_run_serving_holds_two_request_arrays(process):
    session = Session(RunSpec(seed=0), cache=ArtifactCache())
    spec = ServingSpec(num_requests=N, process=process, load=0.5)
    run_serving(session, spec)  # draws the stream, provisions the system
    peak = peak_arrays(lambda: run_serving(session, spec.at_load(0.8)))
    assert peak <= 2.5, f"{peak:.2f} request arrays"
