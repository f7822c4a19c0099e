"""The `SimulationBackend` protocol: programs in, timing records out.

PIMSIM-NN argues PIM performance numbers are only trustworthy when they
come from an explicit instruction-level contract, and MNSIM-2.0 shows
the behaviour-level interface that lets analytic and detailed engines
coexist.  This module is that contract for the reproduction:

* an :class:`EpochProgram` is the *lowered* description of one training
  epoch on one accelerator — the stage chain's per-micro-batch operation
  counts (row reads, MVM activations, update writes, reload writes) as
  exposed by the :class:`~repro.stages.latency.StageTimingModel`
  front-end, plus the replica assignment and pipeline regime;
* a :class:`SimulationBackend` turns programs into :class:`EpochTiming`
  records — the ``(stages, microbatches)`` latency matrix, the scheduled
  :class:`~repro.pipeline.simulator.PipelineResult`, and backend
  statistics, built only when read.  Energy stays activity-count-based
  and backend-independent (:func:`repro.hardware.energy.run_energy`
  charges the same event counts under either engine, integrating idle
  leakage over the backend's makespan);
* :mod:`repro.backends` maps each engine's name to its instance.  The
  run's :class:`~repro.runtime.RunSpec` names the engine, so consumers
  deep in the call tree (accelerator models, the serving cost model, the
  profiling estimator) take it from the current session instead of
  threading an engine handle through every call.

The default engine is ``"analytic"``; under it, every code path is
byte-identical to the pre-protocol implementation (the golden-hash
suite pins this).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.errors import PipelineError
from repro.pipeline.simulator import (
    PipelineResult,
    ScheduleMode,
    simulate_pipeline,
)
from repro.stages.latency import StageTimingModel


@dataclass(frozen=True)
class EpochProgram:
    """One lowered training epoch: what a backend prices.

    Parameters
    ----------
    timing:
        The lowering front-end.  It owns the workload, hardware config,
        calibration params, and update plan, and exposes the lowered
        per-(stage, micro-batch) operation counts (input-row streams,
        MVM activations, adjacency scan reads, busiest-crossbar update
        rows, reload rows) every backend derives its numbers from.
    replicas:
        Per-stage replica assignment (the allocator's output): one count
        per stage, or one count for every stage; ``None`` means one
        replica everywhere.  A count below 1, or a vector whose length
        is not the stage count, raises :class:`~repro.errors.PipelineError`
        here, before any backend prices the program.
    schedule:
        Pipeline regime for :func:`simulate_pipeline`.
    microbatches_per_batch:
        Batch granularity for ``INTRA_BATCH`` drains.
    full_round:
        Epoch write phase.  ``None`` prices the expected minor-period
        mix of partial and full vertex-update rounds (what a whole
        training run averages to); ``True``/``False`` price one specific
        phase (the co-simulation charges epochs individually).
    """

    timing: StageTimingModel
    replicas: Optional[np.ndarray] = None
    schedule: ScheduleMode = ScheduleMode.INTRA_INTER
    microbatches_per_batch: Optional[int] = None
    full_round: Optional[bool] = None
    _lowered: Dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        if self.replicas is None:
            return
        replicas = np.asarray(self.replicas, dtype=np.int64)
        if replicas.ndim > 1 or (
            replicas.ndim == 1 and replicas.size != self.num_stages
        ):
            raise PipelineError(
                f"replicas must be one count per stage ({self.num_stages}),"
                f" got shape {replicas.shape}"
            )
        if np.any(replicas < 1):
            raise PipelineError("replicas must be >= 1")

    @property
    def num_stages(self) -> int:
        """Stage-chain depth."""
        return len(self.timing.stages)

    @property
    def num_microbatches(self) -> int:
        """Micro-batches per epoch."""
        return self.timing.workload.num_microbatches

    def replica_vector(self) -> np.ndarray:
        """The per-stage replica counts as an int64 vector."""
        if self.replicas is None:
            return np.ones(self.num_stages, dtype=np.int64)
        return np.broadcast_to(
            np.asarray(self.replicas, dtype=np.int64), (self.num_stages,)
        )

    def lowered(self, backend: str, build: Callable[[], Any]) -> Any:
        """What ``backend`` lowered this program to, built on first use.

        A backend that prices an epoch and accounts for it from one
        artifact (the trace backend's compiled epoch) fetches it once
        per program, not once per question.
        """
        try:
            return self._lowered[backend]
        except KeyError:
            value = self._lowered[backend] = build()
            return value


@dataclass
class EpochTiming:
    """What a backend produces for one epoch: latency, schedule, stats.

    ``times_ns`` is the per-(stage, micro-batch) latency matrix the
    pipeline schedule was built from; ``stats`` carries backend-specific
    accounting (the trace backend reports instruction counts, which the
    conformance suite checks conserve the workload's operation totals).
    ``build_stats`` makes it on the first read of ``stats``, so an epoch
    nobody asks about costs no accounting.
    """

    backend: str
    times_ns: np.ndarray
    pipeline: PipelineResult
    build_stats: Callable[[], Dict[str, Any]] = field(default=dict, repr=False)

    @functools.cached_property
    def stats(self) -> Dict[str, Any]:
        """Backend-specific accounting, built on first read."""
        return self.build_stats()

    @property
    def total_time_ns(self) -> float:
        """Epoch makespan under the scheduled pipeline."""
        return self.pipeline.total_time_ns


class SimulationBackend(ABC):
    """One pricing engine behind the backend protocol.

    Concrete backends implement :meth:`stage_time_matrix` (programs in,
    latency matrices out) and :meth:`service_times_ns` (the serving
    path's batch-cost law); :meth:`simulate_epoch` composes the matrix
    with the shared Eq. 3/4 pipeline scheduler, which is deliberately
    common infrastructure — backends differ in how they price operations,
    not in the paper's scheduling constraints.
    """

    #: The engine's name in :data:`repro.backends.BACKEND_NAMES`;
    #: subclasses override.
    name: str = ""

    # ------------------------------------------------------------------
    @abstractmethod
    def stage_time_matrix(self, program: EpochProgram) -> np.ndarray:
        """Price a program: the ``(stages, microbatches)`` latency matrix."""

    @abstractmethod
    def service_times_ns(
        self,
        model: Any,  # repro.serving.cost.ServingCostModel
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Integer-ns ``(stages, batches)`` serving service-time matrix."""

    def epoch_stats(self, program: EpochProgram) -> Dict[str, Any]:
        """Backend-specific accounting of :class:`EpochTiming`, a dict the
        caller owns."""
        return {}

    # ------------------------------------------------------------------
    def simulate_epoch(self, program: EpochProgram) -> EpochTiming:
        """Price and schedule one epoch."""
        times = self.stage_time_matrix(program)
        pipeline = simulate_pipeline(
            times, mode=program.schedule,
            microbatches_per_batch=program.microbatches_per_batch,
        )
        return EpochTiming(
            backend=self.name,
            times_ns=times,
            pipeline=pipeline,
            build_stats=functools.partial(self.epoch_stats, program),
        )
