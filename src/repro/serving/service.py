"""`run_serving`: one end-to-end serving simulation.

Ties the pieces together in dataflow order — draw an arrival timeline
from the session's named RNG streams, sample each request's ego seed
vertex, form micro-batches under the policy, price every batch through
the provisioned cost model, schedule batches on the serving replicas,
and reduce to :class:`~repro.serving.stats.ServingStats`.

Determinism contract: the arrival pattern and the request seeds are
drawn from streams named by ``(dataset, process)`` and seeded from the
Session's master seed only — *not* by offered load or batching policy —
so a load sweep or a policy comparison replays the identical request
sequence and its curves differ only through the quantity under study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.errors import ExperimentError
from repro.perf import profile
from repro.runtime.session import Session
from repro.serving.arrivals import (
    DEFAULT_BURSTINESS,
    arrival_times_ns,
    unit_mmpp,
    unit_poisson,
    unit_trace,
)
from repro.serving.batching import BatchingPolicy, BatchPlan, form_batches
from repro.serving.cost import ServingCostModel, build_serving_system
from repro.serving.engine import ServingTimeline, simulate_serving
from repro.serving.stats import ServingStats

ARRIVAL_PROCESSES = ("poisson", "mmpp", "trace")


@dataclass(frozen=True)
class ServingSpec:
    """One serving scenario (everything :func:`run_serving` needs).

    ``load`` is the offered rate as a fraction of the provisioned
    system's :attr:`~repro.serving.cost.ServingCostModel.capacity_rps`;
    pass ``rate_rps`` to pin an absolute rate instead.  ``seed=None``
    derives all streams from the session's master seed.
    """

    dataset: str = "ddi"
    num_requests: int = 100_000
    process: str = "poisson"
    load: float = 0.8
    rate_rps: Optional[float] = None
    burstiness: float = DEFAULT_BURSTINESS
    policy: str = "hybrid"
    max_batch: int = 64
    timeout_us: float = 50.0
    balancer: str = "jsq"
    num_servers: int = 4
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ExperimentError(
                f"unknown arrival process {self.process!r}; "
                f"known: {', '.join(ARRIVAL_PROCESSES)}"
            )
        if self.rate_rps is None and self.load <= 0:
            raise ExperimentError(
                f"load must be positive, got {self.load}"
            )

    def batching_policy(self) -> BatchingPolicy:
        """The resolved batch-formation rule."""
        return BatchingPolicy(
            kind=self.policy,
            max_batch=self.max_batch,
            timeout_ns=max(1, round(self.timeout_us * 1000.0)),
        )

    def at_load(self, load: float) -> "ServingSpec":
        """This scenario at a different offered-load fraction."""
        return replace(self, load=load, rate_rps=None)


@dataclass(frozen=True)
class ServingRun:
    """Everything one simulation produced (inputs kept for inspection)."""

    spec: ServingSpec
    system: ServingCostModel
    rate_rps: float
    arrivals_ns: np.ndarray
    plan: BatchPlan
    timeline: ServingTimeline
    stats: ServingStats


def _unit_pattern(session: Session, spec: ServingSpec) -> np.ndarray:
    """The unit-mean inter-arrival pattern for the spec's process.

    Stream names exclude the load/rate on purpose — see the module
    docstring's determinism contract.
    """
    stream = f"serving:{spec.dataset}:{spec.process}:arrivals"
    if spec.process == "poisson":
        return unit_poisson(
            spec.num_requests, session.rng(stream, seed=spec.seed),
        )
    if spec.process == "mmpp":
        return unit_mmpp(
            spec.num_requests,
            session.rng(stream, seed=spec.seed),
            burstiness=spec.burstiness,
        )
    return unit_trace(spec.num_requests)


def request_degrees(session: Session, spec: ServingSpec) -> np.ndarray:
    """Seed-vertex degrees of every request (the per-request edge work).

    Requests sample ego seeds uniformly from the dataset's vertices; a
    request's aggregation work is its seed's full neighbourhood.
    """
    graph = session.workload(spec.dataset).graph
    rng = session.rng(f"serving:{spec.dataset}:requests", seed=spec.seed)
    seeds = rng.integers(0, graph.num_vertices, spec.num_requests)
    return np.asarray(graph.degrees, dtype=np.int64)[seeds]


@profile.phase(profile.PHASE_TIMING)
def run_serving(session: Session, spec: ServingSpec) -> ServingRun:
    """Simulate one serving scenario end to end, inside ``session``.

    Batches are priced on the backend ``session``'s spec names, whatever
    session the caller is in.  Attributed to the ``timing_model`` phase
    (the queueing scan is the pipeline recurrence's serving analogue);
    nested dataset/allocation work still charges its own inner phase.
    """
    with session.use():
        system = build_serving_system(
            session, spec.dataset,
            num_servers=spec.num_servers, max_batch=spec.max_batch,
        )
        rate = (
            float(spec.rate_rps)
            if spec.rate_rps is not None
            else spec.load * system.capacity_rps
        )
        arrivals = arrival_times_ns(_unit_pattern(session, spec), rate)
        degrees = request_degrees(session, spec)

        plan = form_batches(arrivals, spec.batching_policy())
        batch_edges = np.add.reduceat(degrees, plan.boundaries[:-1])
        times = system.batch_times_ns(plan.sizes(), batch_edges)

        timeline = simulate_serving(
            plan.dispatch_ns, times, system.num_servers, spec.balancer,
        )
        stats = ServingStats.from_simulation(
            arrivals, plan, timeline, stage_names=system.stage_names,
        )
        return ServingRun(
            spec=spec, system=system, rate_rps=rate, arrivals_ns=arrivals,
            plan=plan, timeline=timeline, stats=stats,
        )
