"""Oracles for the serving layer: the batch-formation loop, the scalar
queueing loop and the pre-protocol batch-cost loop.

:func:`form_batches_reference` searches the whole arrival timeline once
per batch; :func:`repro.serving.batching.form_batches` must reproduce
its plans byte for byte.  :func:`batch_of_request` is the per-request
batch index that ``ServingStats.from_simulation`` used to gather
completions with.
:func:`simulate_serving_reference` walks dispatch events in order with
scalar max/add updates; :func:`repro.serving.engine.simulate_serving`
must reproduce its timelines byte for byte.
:func:`batch_times_ns_reference` is the in-place per-stage loop that
the analytic backend's
:meth:`~repro.backends.analytic.AnalyticBackend.service_times_ns`
replaced, byte-identical int64 output.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.serving.batching import BatchingPolicy, BatchPlan
from repro.serving.cost import ServingCostModel
from repro.serving.engine import ServingTimeline, _validate


def form_batches_reference(
    arrivals_ns: np.ndarray,
    policy: BatchingPolicy,
) -> BatchPlan:
    """The batch-formation oracle: one whole-timeline search per batch.

    A window opened at request ``start`` finds every arrival up to its
    deadline with ``searchsorted`` over the whole timeline; a hybrid
    window holding ``max_batch`` of them dispatches at the last one,
    any other window at its deadline.  A size batch takes the next
    ``max_batch`` requests and dispatches at the last one's arrival.
    """
    arrivals = np.asarray(arrivals_ns, dtype=np.int64)
    n = arrivals.size
    bounds = [0]
    dispatch = []
    start = 0
    while start < n:
        if policy.kind == "size":
            stop = min(start + policy.max_batch, n)
            dispatch.append(int(arrivals[stop - 1]))
        else:
            limit = int(arrivals[start]) + policy.timeout_ns
            stop = int(np.searchsorted(arrivals, limit, side="right"))
            if policy.kind == "hybrid" and stop - start >= policy.max_batch:
                stop = start + policy.max_batch
                dispatch.append(int(arrivals[stop - 1]))
            else:
                dispatch.append(limit)
        bounds.append(stop)
        start = stop
    return BatchPlan(
        boundaries=np.array(bounds, dtype=np.int64),
        dispatch_ns=np.array(dispatch, dtype=np.int64),
    )


def batch_of_request(plan: BatchPlan) -> np.ndarray:
    """Batch index of every request (arrival order)."""
    return np.repeat(
        np.arange(plan.num_batches, dtype=np.int64), plan.sizes(),
    )


def simulate_serving_reference(
    dispatch_ns: np.ndarray,
    stage_times_ns: np.ndarray,
    num_servers: int,
    balancer: str = "rr",
) -> ServingTimeline:
    """The scalar event-loop oracle (kept for equivalence testing).

    Processes dispatch events in time order; for each, picks the server
    (round-robin counter or shortest-horizon scan) and walks the batch
    through the server's stage chain with scalar max/add updates.
    Orders of magnitude slower than :func:`simulate_serving` on large
    timelines — that gap is the ``serving`` section of
    ``bench_hotpaths.py``.
    """
    dispatch, times = _validate(
        dispatch_ns, stage_times_ns, num_servers, balancer,
    )
    num_stages, num_batches = times.shape
    starts = np.zeros_like(times)
    ends = np.zeros_like(times)
    assignment = np.zeros(num_batches, dtype=np.int64)
    # Per-server state: when each stage last became free, and the
    # server's backlog horizon (its last batch's final completion).
    avail = np.zeros((num_servers, num_stages), dtype=np.int64)
    horizon = np.zeros(num_servers, dtype=np.int64)

    for k in range(num_batches):
        if balancer == "rr":
            server = k % num_servers
        else:
            server = 0
            for r in range(1, num_servers):
                if horizon[r] < horizon[server]:
                    server = r
        ready = dispatch[k]
        for s in range(num_stages):
            begin = max(ready, avail[server, s])
            finish = begin + times[s, k]
            starts[s, k] = begin
            ends[s, k] = finish
            avail[server, s] = finish
            ready = finish
        horizon[server] = ready
        assignment[k] = server
    return ServingTimeline(
        assignment=assignment, starts=starts, ends=ends,
        num_servers=num_servers, balancer=balancer,
    )


def batch_times_ns_reference(
    model: ServingCostModel,
    sizes: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Pre-protocol ``ServingCostModel.batch_times_ns`` loop — the oracle."""
    sizes_f = np.asarray(sizes, dtype=np.float64)
    edges_f = np.asarray(edges, dtype=np.float64)
    if sizes_f.shape != edges_f.shape or sizes_f.ndim != 1:
        raise ConfigError("sizes and edges must be matching 1-D vectors")
    out = np.empty((model.num_stages, sizes_f.size))
    for s in range(model.num_stages):
        replicas = float(model.replicas[s])
        if model.is_edge_stage[s]:
            effective = np.minimum(
                replicas * model.intrinsic_edge_parallelism,
                np.maximum(1.0, edges_f),
            )
            # stage_factor holds the adjacency scan groups here.
            scan = sizes_f * model.stage_factor[s] * model.read_latency_ns
            out[s] = (edges_f * model.mvm_latency_ns + scan) / effective
        else:
            effective = np.minimum(replicas, sizes_f)
            out[s] = (
                sizes_f * model.stage_factor[s] * model.mvm_latency_ns
                / effective
            )
    return np.rint(out).astype(np.int64)
