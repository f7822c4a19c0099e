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

Each stream is drawn once: the unit pattern and the seed degrees are
kept, read-only, in the session's artifact cache under
``"serving-streams"``, keyed by what the draw reads (stream name,
resolved master seed, request count, burstiness, workload graph).  Every
other scenario of that stream — another load, rate, policy, balancer or
backend — reuses the arrays, at 8 bytes per request each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.perf import profile
from repro.perf.cache import cache_key
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

#: Cache namespace of the drawn unit patterns and seed degrees.
STREAMS_NAMESPACE = "serving-streams"

#: Part of every stream key; bump it when a draw's law, layout or
#: unkeyed constant (``PHASE_LENGTH``) changes, so a disk tier never
#: serves an older one.
_STREAMS_REVISION = "unit-pattern-and-degrees-v1"


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
        for name in ("load", "rate_rps", "timeout_us"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ExperimentError(f"{name} must be finite, got {value}")
        if self.rate_rps is None and self.load <= 0:
            raise ExperimentError(
                f"load must be positive, got {self.load}"
            )
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ExperimentError(
                f"rate_rps must be positive, got {self.rate_rps}"
            )
        if self.timeout_us < 0:
            raise ExperimentError(
                f"timeout_us must be >= 0, got {self.timeout_us}"
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


def _master_seed(session: Session, spec: ServingSpec) -> int:
    """The master seed the spec's streams derive from (as
    :meth:`Session.rng` resolves it)."""
    return session.spec.seed if spec.seed is None else spec.seed


def _cached_stream(
    session: Session, key_parts: Tuple, draw: Callable[[], np.ndarray],
) -> np.ndarray:
    """``draw()``'s array, drawn once per key in the session's cache.

    Read-only, also after a disk-tier hit, which unpickles a writable
    copy: every scenario of the stream shares the one array.
    """
    stream = session.cache.get_or_compute(
        STREAMS_NAMESPACE, cache_key(_STREAMS_REVISION, *key_parts), draw,
    )
    stream.flags.writeable = False
    return stream


def _unit_pattern(session: Session, spec: ServingSpec) -> np.ndarray:
    """The unit-mean inter-arrival pattern for the spec's process.

    Stream names and keys exclude the load/rate on purpose — see the
    module docstring's determinism contract.
    """
    stream = f"serving:{spec.dataset}:{spec.process}:arrivals"
    seed = _master_seed(session, spec)
    count = spec.num_requests

    def draw() -> np.ndarray:
        if spec.process == "trace":
            return unit_trace(count)
        rng = session.rng(stream, seed=seed)
        if spec.process == "mmpp":
            return unit_mmpp(count, rng, burstiness=spec.burstiness)
        return unit_poisson(count, rng)

    params = (float(spec.burstiness),) if spec.process == "mmpp" else ()
    return _cached_stream(session, (stream, seed, count, *params), draw)


def request_degrees(session: Session, spec: ServingSpec) -> np.ndarray:
    """Seed-vertex degrees of every request (the per-request edge work).

    Requests sample ego seeds uniformly from the dataset's vertices; a
    request's aggregation work is its seed's full neighbourhood.  The
    array is cached and read-only, like the unit pattern.
    """
    graph = session.workload(spec.dataset).graph
    stream = f"serving:{spec.dataset}:requests"
    seed = _master_seed(session, spec)

    def draw() -> np.ndarray:
        rng = session.rng(stream, seed=seed)
        seeds = rng.integers(0, graph.num_vertices, spec.num_requests)
        return np.asarray(graph.degrees, dtype=np.int64)[seeds]

    return _cached_stream(
        session, (stream, seed, spec.num_requests, graph), draw,
    )


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
