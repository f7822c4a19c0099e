"""Micro-batch formation from an arrival timeline.

The batcher sits between the arrival stream and the replica
load-balancer: it groups consecutive requests into dispatch units and
stamps each unit's *dispatch time* — the moment the batch leaves the
front-end queue and becomes schedulable on a serving replica.  Three
trigger policies:

* ``size`` — dispatch as soon as ``max_batch`` requests are buffered;
  dispatch time is the last member's arrival.  (Highest efficiency,
  unbounded wait at low load.)
* ``timeout`` — a window opens at the first buffered request and
  dispatches exactly ``timeout_ns`` later with whatever arrived.
  (Bounded formation wait, small batches at low load.)
* ``hybrid`` — whichever of the two triggers fires first: the
  ``max_batch``-th arrival inside the window dispatches immediately,
  otherwise the timeout flushes.  (The production default.)

Batch membership and dispatch times are a pure function of the arrival
timestamps and the policy — both queueing engines consume the same
:class:`BatchPlan`, so batching is deliberately implemented once.  The
``size`` path is fully vectorized (a reshape).  The windowed policies
loop once per *batch*, not per request.  A hybrid window opened at
request ``s`` fills iff its ``max_batch``-th arrival,
``arrivals[s + max_batch - 1]``, lands by the deadline — arrivals never
decrease, so one comparison decides the size trigger.  Only a window
that times out searches for its last member, and only among its first
``max_batch`` arrivals; a ``timeout`` window, which has no cap, searches
the rest of the timeline.  Dispatch times follow from the batch sizes in
one vector step at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError

POLICY_KINDS = ("size", "timeout", "hybrid")


@dataclass(frozen=True)
class BatchingPolicy:
    """One batch-formation rule.

    Attributes
    ----------
    kind:
        ``"size"`` / ``"timeout"`` / ``"hybrid"``.
    max_batch:
        Size trigger (and batch-size cap) for ``size`` and ``hybrid``.
    timeout_ns:
        Window length for ``timeout`` and ``hybrid``.
    """

    kind: str = "hybrid"
    max_batch: int = 64
    timeout_ns: int = 50_000

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ExperimentError(
                f"unknown batching policy {self.kind!r}; "
                f"known: {', '.join(POLICY_KINDS)}"
            )
        if self.kind in ("size", "hybrid") and self.max_batch < 1:
            raise ExperimentError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.kind in ("timeout", "hybrid") and self.timeout_ns < 1:
            raise ExperimentError(
                f"timeout_ns must be >= 1, got {self.timeout_ns}"
            )

    def label(self) -> str:
        """Short human-readable form for experiment tables."""
        if self.kind == "size":
            return f"size({self.max_batch})"
        if self.kind == "timeout":
            return f"timeout({self.timeout_ns / 1000:g}us)"
        return f"hybrid({self.max_batch},{self.timeout_ns / 1000:g}us)"


@dataclass(frozen=True)
class BatchPlan:
    """Batch membership and dispatch times over one arrival timeline.

    ``boundaries[k]:boundaries[k+1]`` indexes batch ``k``'s requests in
    arrival order; ``dispatch_ns[k]`` is when the batch becomes
    schedulable.  Every request belongs to exactly one batch and
    dispatch times are non-decreasing (windows are disjoint in time).
    """

    boundaries: np.ndarray
    dispatch_ns: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.asarray(self.boundaries, dtype=np.int64)
        dispatch = np.asarray(self.dispatch_ns, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ExperimentError("boundaries must hold at least one batch")
        if dispatch.shape != (bounds.size - 1,):
            raise ExperimentError(
                "need exactly one dispatch time per batch"
            )
        if np.any(np.diff(bounds) < 1):
            raise ExperimentError("every batch must hold >= 1 request")
        if np.any(np.diff(dispatch) < 0):
            raise ExperimentError("dispatch times must be non-decreasing")
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "dispatch_ns", dispatch)

    @property
    def num_batches(self) -> int:
        """Number of dispatch units."""
        return self.dispatch_ns.size

    @property
    def num_requests(self) -> int:
        """Number of batched requests."""
        return int(self.boundaries[-1])

    def sizes(self) -> np.ndarray:
        """Requests per batch."""
        return np.diff(self.boundaries)


def _size_batches(arrivals: np.ndarray, max_batch: int) -> BatchPlan:
    n = arrivals.size
    num_batches = -(-n // max_batch)
    bounds = np.minimum(
        np.arange(num_batches + 1, dtype=np.int64) * max_batch, n,
    )
    return BatchPlan(
        boundaries=bounds, dispatch_ns=arrivals[bounds[1:] - 1],
    )


def _windowed_batches(
    arrivals: np.ndarray,
    policy: BatchingPolicy,
) -> BatchPlan:
    n = arrivals.size
    timeout = policy.timeout_ns
    # A timeout window has no size trigger: cap it past any batch.
    cap = policy.max_batch if policy.kind == "hybrid" else n + 1
    arrival = arrivals.item
    if arrival(n - 1) + timeout > np.iinfo(np.int64).max:
        raise ExperimentError("timeout_ns pushes dispatch times past int64")
    stops = [0]
    start = 0
    while start < n:
        end = start + cap
        limit = arrival(start) + timeout
        if end <= n and arrival(end - 1) <= limit:
            start = end
        else:
            start += int(arrivals[start:end].searchsorted(limit, "right"))
        stops.append(start)
    bounds = np.array(stops, dtype=np.int64)
    # A full batch leaves at its last arrival, any other at its deadline.
    dispatch = np.where(
        np.diff(bounds) == cap,
        arrivals[bounds[1:] - 1],
        arrivals[bounds[:-1]] + timeout,
    )
    return BatchPlan(boundaries=bounds, dispatch_ns=dispatch)


def form_batches(
    arrivals_ns: np.ndarray,
    policy: BatchingPolicy,
) -> BatchPlan:
    """Group an arrival timeline into dispatch units under a policy."""
    arrivals = np.asarray(arrivals_ns, dtype=np.int64)
    if arrivals.ndim != 1 or arrivals.size == 0:
        raise ExperimentError("arrivals_ns must be a non-empty 1-D array")
    if np.any(arrivals[1:] < arrivals[:-1]):
        raise ExperimentError("arrivals must be non-decreasing")
    if policy.kind == "size":
        return _size_batches(arrivals, policy.max_batch)
    return _windowed_batches(arrivals, policy)
