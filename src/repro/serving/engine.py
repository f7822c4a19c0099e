"""The queueing core: batches through replicated pipeline servers.

Each serving replica ("server") is a full GoPIM inference pipeline —
the forward CO/AG stage chain with its own crossbar allocation.  A
dispatched batch is routed to one server by the load balancer and flows
through the server's stages under the paper's pipeline constraints,
extended with a *release time*:

* a batch cannot start stage 0 before its dispatch time (release);
* stage ``s`` of a batch cannot start before the same batch left stage
  ``s-1`` (Eq. 4, data dependency);
* a server's stage ``s`` cannot run two batches at once — batch ``k``
  waits for the server's previous batch to leave stage ``s`` (Eq. 3,
  one crossbar pool per stage per server).

Balancing policies:

* ``rr`` — round-robin: batch ``k`` goes to server ``k mod R``;
* ``jsq`` — join-shortest-queue: at dispatch, join the server whose
  backlog horizon (final-stage completion of its most recently assigned
  batch; 0 if idle) is earliest, ties to the lowest server index.

The core is implemented twice, like every fast path in this repo:

* :func:`simulate_serving_reference` — the scalar event loop: batches
  are processed in dispatch order (dispatch order *is* event order —
  per-server FIFO means no later event can affect an earlier decision),
  each through a scalar per-stage max/add recurrence.
* :func:`simulate_serving` — the batched timeline engine.  For static
  assignments (round-robin) each server's per-stage row collapses to
  the scan form of the PR 1 pipeline recurrence generalised to release
  times: with ``cum`` the inclusive running sum of the row's service
  times and ``c`` the external constraint (dispatch for stage 0, the
  previous stage's ends after), ``end = cum + max.accumulate(c - (cum -
  service))`` — one ``O(K)`` vector pass per (server, stage) instead of
  a Python loop over batches.  JSQ assignment is inherently sequential
  (each decision depends on earlier completions), so its fast path is a
  tight native-int loop over *batches* — still far from the reference's
  per-(stage, batch) numpy-scalar event loop.

Everything is **integer nanoseconds**: cumulative sums, maxima, and
differences of int64 are exact, so the scan engine's reassociated
arithmetic produces byte-identical timelines to the scalar loop —
asserted by ``tests/serving/test_engine_equivalence.py``, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.perf import profile

BALANCERS = ("rr", "jsq")


@dataclass
class ServingTimeline:
    """One serving simulation's schedule.

    ``starts``/``ends`` are ``(num_stages, num_batches)`` int64
    matrices of absolute nanosecond times; ``assignment[k]`` is the
    server batch ``k`` ran on.
    """

    assignment: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    num_servers: int
    balancer: str

    @property
    def num_stages(self) -> int:
        """Pipeline depth of each server."""
        return self.starts.shape[0]

    @property
    def num_batches(self) -> int:
        """Number of scheduled batches."""
        return self.starts.shape[1]

    @property
    def completions_ns(self) -> np.ndarray:
        """Final-stage end per batch (the request-visible completion)."""
        return self.ends[-1]

    def stage_busy_ns(self) -> np.ndarray:
        """Total busy time per stage, summed over servers."""
        return (self.ends - self.starts).sum(axis=1)


def _validate(
    dispatch_ns: np.ndarray,
    stage_times_ns: np.ndarray,
    num_servers: int,
    balancer: str,
):
    dispatch = np.asarray(dispatch_ns, dtype=np.int64)
    times = np.asarray(stage_times_ns, dtype=np.int64)
    if times.ndim != 2:
        raise ExperimentError(
            "stage_times_ns must be (num_stages, num_batches)"
        )
    if dispatch.shape != (times.shape[1],):
        raise ExperimentError(
            "need exactly one dispatch time per batch"
        )
    if dispatch.size == 0:
        raise ExperimentError("need at least one batch")
    if np.any(np.diff(dispatch) < 0):
        raise ExperimentError("dispatch times must be non-decreasing")
    if np.any(times < 0):
        raise ExperimentError("stage service times must be non-negative")
    if num_servers < 1:
        raise ExperimentError(f"num_servers must be >= 1, got {num_servers}")
    if balancer not in BALANCERS:
        raise ExperimentError(
            f"unknown balancer {balancer!r}; known: {', '.join(BALANCERS)}"
        )
    return dispatch, times


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


def _scan_static(
    dispatch: np.ndarray,
    times: np.ndarray,
    assignment: np.ndarray,
    num_servers: int,
) -> tuple:
    """Release-time pipeline scan for a fixed batch->server assignment."""
    num_stages, _ = times.shape
    starts = np.empty_like(times)
    ends = np.empty_like(times)
    for server in range(num_servers):
        idx = np.flatnonzero(assignment == server)
        if idx.size == 0:
            continue
        constraint = dispatch[idx]
        for s in range(num_stages):
            service = times[s, idx]
            cum = np.cumsum(service)
            end = cum + np.maximum.accumulate(constraint - (cum - service))
            starts[s, idx] = end - service
            ends[s, idx] = end
            constraint = end
    return starts, ends


def _fast_jsq(
    dispatch: np.ndarray,
    times: np.ndarray,
    num_servers: int,
) -> tuple:
    """Sequential JSQ recurrence on native ints (no numpy scalar churn)."""
    num_stages, num_batches = times.shape
    d = dispatch.tolist()
    t = times.tolist()
    avail = [[0] * num_stages for _ in range(num_servers)]
    horizon = [0] * num_servers
    assignment = [0] * num_batches
    starts = [[0] * num_batches for _ in range(num_stages)]
    ends = [[0] * num_batches for _ in range(num_stages)]
    for k in range(num_batches):
        server = 0
        best = horizon[0]
        for r in range(1, num_servers):
            if horizon[r] < best:
                best = horizon[r]
                server = r
        state = avail[server]
        ready = d[k]
        for s in range(num_stages):
            begin = state[s]
            if ready > begin:
                begin = ready
            finish = begin + t[s][k]
            state[s] = finish
            starts[s][k] = begin
            ends[s][k] = finish
            ready = finish
        horizon[server] = ready
        assignment[k] = server
    return (
        np.array(assignment, dtype=np.int64),
        np.array(starts, dtype=np.int64),
        np.array(ends, dtype=np.int64),
    )


@profile.phase(profile.PHASE_TIMING)
def simulate_serving(
    dispatch_ns: np.ndarray,
    stage_times_ns: np.ndarray,
    num_servers: int,
    balancer: str = "rr",
) -> ServingTimeline:
    """The batched timeline engine (the hot path the experiments run).

    Byte-identical to :func:`simulate_serving_reference` — integer
    arithmetic makes the scan form's reassociation exact.
    """
    dispatch, times = _validate(
        dispatch_ns, stage_times_ns, num_servers, balancer,
    )
    num_batches = times.shape[1]
    if balancer == "rr":
        assignment = (
            np.arange(num_batches, dtype=np.int64) % num_servers
        )
        starts, ends = _scan_static(dispatch, times, assignment, num_servers)
    else:
        assignment, starts, ends = _fast_jsq(dispatch, times, num_servers)
    return ServingTimeline(
        assignment=assignment, starts=starts, ends=ends,
        num_servers=num_servers, balancer=balancer,
    )
