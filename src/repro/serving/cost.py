"""Per-batch service times for serving replicas.

An inference request is an ego-subgraph lookup: one seed vertex whose
updated embedding must be produced, which streams one feature row
through each combination stage and ``degree(seed)`` neighbour slots
through each aggregation stage.  A dispatched micro-batch of requests
therefore costs exactly what the training-side
:class:`~repro.stages.latency.StageTimingModel` charges a micro-batch of
the same vertex count and edge sum on the *forward* half of the stage
chain (``CO_l``, ``AG_l`` for each layer) — inference runs no gradient
stages and performs no vertex-update writes, so the replica-independent
write floors drop out and the pure compute laws remain.

:func:`build_serving_system` provisions the chip: the available
crossbars are split evenly into ``num_servers`` independent serving
replicas, and each replica's spare crossbars (beyond one mandatory copy
of every forward stage) are distributed over its stages by the same
Algorithm 1 greedy allocator the training experiments use, costed at the
policy's full batch size.  The resulting :class:`ServingCostModel` turns
``(batch sizes, batch edge sums)`` vectors into the integer-nanosecond
``(num_stages, num_batches)`` service-time matrix the queueing engines
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.allocation.greedy import greedy_allocation
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.errors import ConfigError
from repro.mapping.tiling import plan_tiling
from repro.runtime.session import Session
from repro.stages.latency import (
    DEFAULT_TIMING_PARAMS,
    TimingParams,
    stage_cost_factor,
)

#: Pipeline depth the per-replica allocator balances for.  Serving keeps
#: a replica's stage pipeline continuously fed under load, so the
#: allocator sees a deep steady-state window rather than a short drain.
ALLOC_PIPELINE_DEPTH = 32


@dataclass(frozen=True)
class ServingCostModel:
    """Batch-cost oracle for one provisioned serving system.

    Holds the per-stage constants of the forward chain plus the replica
    counts the allocator assigned within each server, pre-reduced so
    :meth:`batch_times_ns` is a handful of vector ops per stage.
    """

    dataset: str
    stage_names: List[str]
    is_edge_stage: np.ndarray
    stage_factor: np.ndarray
    replicas: np.ndarray
    crossbars_per_replica: np.ndarray
    num_servers: int
    max_batch: int
    mean_degree: float
    mvm_latency_ns: float
    read_latency_ns: float
    intrinsic_edge_parallelism: int
    allocation: Optional[AllocationResult]

    @property
    def num_stages(self) -> int:
        """Forward-chain depth (2 per GCN layer)."""
        return len(self.stage_names)

    def batch_times_ns(
        self,
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Integer-ns ``(num_stages, num_batches)`` service-time matrix.

        ``sizes[k]`` is batch ``k``'s request count, ``edges[k]`` its
        summed seed degrees.  Dispatches to
        :meth:`~repro.backends.SimulationBackend.service_times_ns` of the
        current session's backend — the analytic engine applies the
        compute law :meth:`~repro.stages.latency.StageTimingModel.compute_times_ns`
        uses (byte-identical to the pre-protocol loop in
        ``tests/oracles/serving.py``); the trace engine prices the same
        lanes and constants with per-lane ceil occupancy.
        """
        from repro.backends import resolve_backend

        sizes_f = np.asarray(sizes, dtype=np.float64)
        edges_f = np.asarray(edges, dtype=np.float64)
        if sizes_f.shape != edges_f.shape or sizes_f.ndim != 1:
            raise ConfigError("sizes and edges must be matching 1-D vectors")
        return resolve_backend(None).service_times_ns(self, sizes, edges)

    def full_batch_time_ns(self) -> int:
        """Bottleneck-stage service time of one full batch."""
        sizes = np.array([self.max_batch], dtype=np.int64)
        edges = np.array(
            [max(1, round(self.max_batch * self.mean_degree))],
            dtype=np.int64,
        )
        return int(self.batch_times_ns(sizes, edges).max())

    @property
    def capacity_rps(self) -> float:
        """Saturation throughput estimate in requests per second.

        Each server's pipeline sustains one full batch per bottleneck
        stage interval, and servers run independently; offered loads in
        the ``srv_*`` experiments are fractions of this.
        """
        return (
            self.num_servers * self.max_batch * 1e9 / self.full_batch_time_ns()
        )


def build_serving_system(
    session: Session,
    dataset: str,
    num_servers: int = 4,
    max_batch: int = 64,
    params: TimingParams = DEFAULT_TIMING_PARAMS,
    memoize_allocation: bool = True,
) -> ServingCostModel:
    """Provision serving replicas on the session's chip for a dataset.

    Splits the crossbar budget evenly into (at most) ``num_servers``
    replicas — capped at how many mandatory forward-chain copies fit —
    and runs the greedy allocator inside each replica's share, costed at
    the full batch size the batching policy targets.

    The allocator problem is a pure function of (config, dataset shape,
    servers, batch), so by default its search is memoised through the
    content-keyed ``"allocation"`` cache and repeated builds — tail-
    latency sweeps re-provision per policy point — skip straight to the
    replica vector.  ``memoize_allocation=False`` forces a cold search.
    """
    if num_servers < 1:
        raise ConfigError(f"num_servers must be >= 1, got {num_servers}")
    if max_batch < 1:
        raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
    config = session.config
    workload = session.workload(dataset)
    forward = workload.stage_chain()[: 2 * workload.num_layers]
    mean_degree = float(workload.graph.degrees.mean())

    crossbars = np.array(
        [
            plan_tiling(s.mapped_rows, s.mapped_cols, config).num_crossbars
            for s in forward
        ],
        dtype=np.int64,
    )
    mandatory = int(crossbars.sum())
    fitting = config.total_crossbars // mandatory
    if fitting < 1:
        raise ConfigError(
            f"one forward chain needs {mandatory} crossbars; budget is "
            f"{config.total_crossbars}"
        )
    servers = min(num_servers, fitting)
    per_server_budget = config.total_crossbars // servers - mandatory

    # The training side's per-stage latency-law constants.
    is_edge = np.array(
        [s.kind.is_edge_proportional for s in forward], dtype=bool,
    )
    factor = np.array(
        [stage_cost_factor(s, config, params) for s in forward],
        dtype=np.float64,
    )

    # Allocator inputs: one full batch's per-stage time at 1 replica.
    batch_edges = max(1, round(max_batch * mean_degree))
    base = ServingCostModel(
        dataset=dataset,
        stage_names=[s.name for s in forward],
        is_edge_stage=is_edge,
        stage_factor=factor,
        replicas=np.ones(len(forward), dtype=np.int64),
        crossbars_per_replica=crossbars,
        num_servers=servers,
        max_batch=max_batch,
        mean_degree=mean_degree,
        mvm_latency_ns=config.mvm_latency_ns,
        read_latency_ns=config.read_latency_ns,
        intrinsic_edge_parallelism=params.intrinsic_edge_parallelism,
        allocation=None,
    )
    # Allocator inputs stay analytic whatever the session's backend:
    # provisioning is part of the planner, and keeping the replica split
    # backend-independent means every backend prices the *same* system
    # (mirrors AcceleratorModel, whose allocation tables are analytic).
    from repro.backends import get_backend

    times = get_backend("analytic").service_times_ns(
        base,
        np.array([max_batch], dtype=np.int64),
        np.array([batch_edges], dtype=np.int64),
    )[:, 0].astype(np.float64)
    caps = np.where(
        is_edge,
        np.maximum(1, batch_edges),
        max_batch,
    ).astype(np.int64)
    problem = AllocationProblem(
        stage_names=list(base.stage_names),
        times_ns=np.maximum(times, 1e-3),
        crossbars_per_replica=crossbars,
        budget=per_server_budget,
        replica_caps=caps,
        num_microbatches=ALLOC_PIPELINE_DEPTH,
    )
    allocation = greedy_allocation(problem, memoize=memoize_allocation)
    return ServingCostModel(
        dataset=dataset,
        stage_names=base.stage_names,
        is_edge_stage=is_edge,
        stage_factor=factor,
        replicas=np.asarray(allocation.replicas, dtype=np.int64),
        crossbars_per_replica=crossbars,
        num_servers=servers,
        max_batch=max_batch,
        mean_degree=mean_degree,
        mvm_latency_ns=config.mvm_latency_ns,
        read_latency_ns=config.read_latency_ns,
        intrinsic_edge_parallelism=params.intrinsic_edge_parallelism,
        allocation=allocation,
    )
