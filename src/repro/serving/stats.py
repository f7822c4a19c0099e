"""Serving metrics: tail latency, saturation, queue depth, utilisation.

A request's latency is end-to-end: arrival -> batch formation wait ->
queueing behind the replica's backlog -> pipeline service -> final-stage
completion of its batch.  All metrics derive from the integer-nanosecond
arrival and completion timelines, so equal simulations produce equal
rows bit for bit.

Percentiles use the deterministic upper-index convention (the smallest
sorted latency with at least ``q`` of the mass at or below it) rather
than interpolation — tail quantiles stay actual observed latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.serving.batching import BatchPlan
from repro.serving.engine import ServingTimeline


def exact_percentile(sorted_ns: np.ndarray, q: float) -> int:
    """The ``q``-th percentile of a pre-sorted int64 latency vector."""
    n = sorted_ns.size
    index = max(0, math.ceil(q / 100.0 * n) - 1)
    return int(sorted_ns[index])


@dataclass(frozen=True)
class ServingStats:
    """Summary metrics of one serving simulation.

    Times are nanoseconds (int), rates are requests/second, depths are
    requests.  ``to_row`` converts to the millisecond / plain-float
    units the experiment tables print.
    """

    num_requests: int
    num_batches: int
    horizon_ns: int
    offered_rps: float
    achieved_rps: float
    latency_p50_ns: int
    latency_p95_ns: int
    latency_p99_ns: int
    latency_mean_ns: float
    latency_max_ns: int
    mean_queue_depth: float
    mean_batch_size: float
    bottleneck_utilization: float
    stage_busy_ns: Dict[str, int]

    @classmethod
    def from_simulation(
        cls,
        arrivals_ns: np.ndarray,
        plan: BatchPlan,
        timeline: ServingTimeline,
        stage_names=None,
    ) -> "ServingStats":
        """Reduce raw timelines to summary metrics.

        ``arrivals_ns`` must be the request arrival timeline the plan was
        formed from; request ``i`` completes when its batch leaves the
        final stage.
        """
        arrivals = np.asarray(arrivals_ns, dtype=np.int64)
        # Sorted in place: the percentiles read it, and the latency sum
        # below does not depend on order.
        latencies = np.repeat(timeline.completions_ns, plan.sizes())
        latencies -= arrivals
        latencies.sort()
        horizon = int(timeline.completions_ns.max())
        n = arrivals.size

        # Offered rate over the arrival span; achieved over the full
        # horizon including pipeline drain.  The two diverge past
        # saturation — the srv_saturation experiment's signal.
        span = max(1, int(arrivals[-1] - arrivals[0]))
        offered = (n - 1) / (span / 1e9) if n > 1 else 0.0
        achieved = n / (horizon / 1e9)

        # Time-averaged number of requests in the system: each request
        # contributes its latency to the integral of the queue-depth
        # curve, so L = sum(latencies) / horizon (Little's law is the
        # corresponding invariant L = lambda_eff * W).
        total_wait = float(latencies.sum(dtype=np.int64))
        mean_depth = total_wait / horizon

        busy = timeline.stage_busy_ns()
        names = (
            list(stage_names)
            if stage_names is not None
            else [f"stage{i}" for i in range(timeline.num_stages)]
        )
        utilization = float(busy.max()) / (
            timeline.num_servers * horizon
        )
        return cls(
            num_requests=n,
            num_batches=plan.num_batches,
            horizon_ns=horizon,
            offered_rps=offered,
            achieved_rps=achieved,
            latency_p50_ns=exact_percentile(latencies, 50.0),
            latency_p95_ns=exact_percentile(latencies, 95.0),
            latency_p99_ns=exact_percentile(latencies, 99.0),
            latency_mean_ns=total_wait / n,
            latency_max_ns=int(latencies[-1]),
            mean_queue_depth=mean_depth,
            mean_batch_size=n / plan.num_batches,
            bottleneck_utilization=utilization,
            stage_busy_ns={
                name: int(b) for name, b in zip(names, busy)
            },
        )

    def to_row(self) -> Dict[str, object]:
        """Experiment-table row (milliseconds, plain Python types)."""
        return {
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_batch": round(self.mean_batch_size, 2),
            "offered_rps": round(self.offered_rps, 1),
            "achieved_rps": round(self.achieved_rps, 1),
            "p50_ms": round(self.latency_p50_ns / 1e6, 4),
            "p95_ms": round(self.latency_p95_ns / 1e6, 4),
            "p99_ms": round(self.latency_p99_ns / 1e6, 4),
            "mean_ms": round(self.latency_mean_ns / 1e6, 4),
            "queue_depth": round(self.mean_queue_depth, 2),
            "utilization": round(self.bottleneck_utilization, 4),
        }
