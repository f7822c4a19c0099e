"""AcceleratorModel: dataset + model + hardware -> time, energy, trace.

Every evaluated system (Serial, SlimGNN-like, ReGraphX, ReFlip,
GoPIM-Vanilla, GoPIM, and the Fig. 14 ablation variants) is one
:class:`AcceleratorModel` configuration: a pipeline schedule, a replica
allocation policy, an update strategy, and optional quirks (ReFlip's
reload penalty, SlimGNN's input pruning).  ``run`` produces an
:class:`AcceleratorReport` with the makespan, a full energy breakdown, the
per-stage idle fractions, and the replica assignment.

Energy is priced by :mod:`repro.hardware.energy` from per-stage activity
counts (matching Fig. 13b/14b's structure).  What no replica count
changes, :class:`~repro.hardware.energy.EnergyConstants`, is priced once
per timing model and kept in its ``"timing-tables"`` artifact; a run
adds only what its replicas and schedule decide: each pool's idle
leakage and mesh handoff, and static energy over its makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.allocation.baselines import serial_allocation
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.backends import EpochProgram, resolve_backend
from repro.errors import ConfigError
from repro.hardware.config import HardwareConfig
from repro.hardware.energy import EnergyBreakdown, EnergyConstants, run_energy
from repro.mapping.selective import build_update_plan
from repro.perf import profile
from repro.pipeline.simulator import PipelineResult, ScheduleMode
from repro.runtime import current_session
from repro.stages.latency import (
    DEFAULT_TIMING_PARAMS,
    StageTimingModel,
    TimingParams,
)
from repro.stages.workload import Workload

AllocatorFn = Callable[[AllocationProblem], AllocationResult]

#: Batch granularity of INTRA_BATCH pipeline drains.
MICROBATCHES_PER_BATCH = 4

#: Layout revision of the ``"timing-tables"`` artifact, part of its key:
#: bump it whenever the artifact's contents change, so a disk tier
#: written by older code is never read back.
_TABLES_REVISION = "hardware-energy-constants-v3"


@dataclass
class AcceleratorReport:
    """Everything one accelerator run produces."""

    accelerator: str
    workload: str
    total_time_ns: float
    energy: EnergyBreakdown
    pipeline: PipelineResult
    allocation: Optional[AllocationResult]
    stage_names: List[str]
    replicas: np.ndarray
    crossbars_reserved: int
    backend: str = "analytic"

    @property
    def energy_pj(self) -> float:
        """Total energy in pJ."""
        return self.energy.total_pj

    def idle_fractions(self) -> np.ndarray:
        """Per-stage crossbar-pool idle fractions (Fig. 4 / Fig. 15)."""
        return self.pipeline.idle_fractions()


@dataclass
class AcceleratorModel:
    """One accelerator design point.

    Attributes
    ----------
    name:
        Report label (``"GoPIM"``, ``"Serial"``, ...).
    schedule:
        Pipeline regime.
    allocator:
        Replica allocation policy over an :class:`AllocationProblem`.
    update_strategy:
        ``"full"`` / ``"osu"`` / ``"isu"`` vertex updating.
    timing_params:
        Latency-model constants (ReFlip overrides ``reload_penalty``);
        the default is the shared
        :data:`~repro.stages.latency.DEFAULT_TIMING_PARAMS`.
    predicted_times:
        Optional stage-name -> predicted-time map fed to the allocator
        instead of the true model times (GoPIM's ML predictor path).
    prune_graph:
        SlimGNN-like input-subgraph pruning applied to AG/GC edge work.
    theta:
        Update / pruning threshold; ``None`` is the adaptive rule
        (:func:`~repro.mapping.selective.adaptive_theta`).
    """

    name: str
    schedule: ScheduleMode = ScheduleMode.INTRA_INTER
    allocator: AllocatorFn = serial_allocation
    update_strategy: str = "full"
    timing_params: TimingParams = DEFAULT_TIMING_PARAMS
    predicted_times: Optional[Dict[str, float]] = None
    time_predictor: Optional[object] = None  # repro.predictor.TimePredictor
    prune_graph: bool = False
    theta: Optional[float] = None

    # ------------------------------------------------------------------
    def build_timing_model(
        self,
        workload: Workload,
        config: Optional[HardwareConfig] = None,
    ) -> StageTimingModel:
        """The timing model this accelerator runs against, on ``config``
        (default: the current session's hardware).

        A pruning design point prices the workload on its pruned graph;
        that workload is memoised on ``workload`` per theta (it holds no
        reference back), so a warm run builds no stage chain.
        """
        if config is None:
            config = current_session().config
        effective_workload = workload
        if self.prune_graph:
            from repro.graphs.sparsify import sparsify_by_degree
            from repro.mapping.selective import adaptive_theta

            theta = (
                self.theta if self.theta is not None
                else adaptive_theta(workload.graph)
            )
            effective_workload = workload.cached(
                ("pruned", float(theta)),
                lambda: Workload(
                    graph=sparsify_by_degree(workload.graph, theta),
                    layer_dims=workload.layer_dims,
                    micro_batch=workload.micro_batch,
                    name=workload.name,
                ),
            )
        plan = build_update_plan(
            effective_workload.graph,
            strategy=self.update_strategy,
            theta=self.theta,
            rows_per_crossbar=config.crossbar_rows,
        )
        return StageTimingModel(
            effective_workload, config=config,
            params=self.timing_params, update_plan=plan,
        )

    @staticmethod
    def _timing_tables(timing: StageTimingModel) -> Dict[str, Any]:
        """Allocator inputs and energy inputs per stage, content-memoised.

        Pure function of (graph, model shape, micro-batch, hardware
        config, timing params, update plan), the content the timing
        model's :meth:`~StageTimingModel.content_fingerprint` digests.
        Many experiments evaluate the same combination, so the tables go
        through ``repro.perf``.  One pass over the stages gathers each
        stage's crossbars per replica, replica cap, latency floor (its
        replica-independent update writes and reloads) and mean time at
        one replica; ``"energy"`` holds the :class:`EnergyConstants`
        priced from the stages'
        :meth:`~StageTimingModel.stage_activity_totals`, which no
        replica assignment changes.  Readers never mutate them.
        """
        key = f"{_TABLES_REVISION}:{timing.content_fingerprint()}"

        def compute() -> Dict[str, Any]:
            num_mbs = timing.workload.num_microbatches
            crossbars, caps, floors, means, activities = [], [], [], [], []
            for stage in timing.stages:
                write = timing.write_times_ns(stage)
                reload = timing.reload_times_ns(stage)
                compute_ns = timing.compute_times_ns(stage, 1)
                crossbars.append(timing.crossbars_per_replica(stage))
                caps.append(timing.max_useful_replicas(stage))
                floors.append(float((write + reload).sum() / num_mbs))
                means.append(float(
                    (compute_ns + write + reload).sum() / num_mbs
                ))
                activities.append(timing.stage_activity_totals(stage))
            return {
                "crossbars": np.array(crossbars, dtype=np.int64),
                "caps": np.array(caps, dtype=np.int64),
                "floors": np.array(floors),
                "mean_times": np.array(means),
                "energy": EnergyConstants.of(
                    timing.config, crossbars, activities,
                ),
            }

        return current_session().cache.get_or_compute(
            "timing-tables", key, compute,
        )

    def _build_problem(
        self,
        timing: StageTimingModel,
        tables: Optional[Dict[str, Any]] = None,
    ) -> AllocationProblem:
        """The allocation problem on the timing model's hardware;
        ``tables`` skips a second lookup."""
        workload = timing.workload
        stages = timing.stages
        names = [s.name for s in stages]
        if tables is None:
            tables = self._timing_tables(timing)
        crossbars = tables["crossbars"]
        caps = tables["caps"]
        floors = tables["floors"]
        true_times = tables["mean_times"] - floors
        predicted = self.predicted_times
        if predicted is None and self.time_predictor is not None:
            predicted = self.time_predictor.predict_stage_times(workload)
        if predicted is not None:
            times = np.array([
                max(predicted.get(name, t) - f, 1e-3)
                for name, t, f in zip(names, true_times, floors)
            ])
        else:
            times = np.maximum(true_times, 1e-3)
        mandatory = int(crossbars.sum())
        total = timing.config.total_crossbars
        budget = total - mandatory
        if budget < 0:
            raise ConfigError(
                f"workload needs {mandatory} crossbars; budget is {total}"
            )
        return AllocationProblem(
            stage_names=names,
            times_ns=times,
            crossbars_per_replica=crossbars,
            budget=budget,
            replica_caps=caps,
            num_microbatches=workload.num_microbatches,
            fixed_floors_ns=floors,
        )

    # ------------------------------------------------------------------
    @profile.phase(profile.PHASE_ACCELERATOR)
    def run(
        self,
        workload: Workload,
        config: Optional[HardwareConfig] = None,
        backend=None,
    ) -> AcceleratorReport:
        """Simulate one training epoch and account time + energy.

        Attributed to the ``accelerator_sim`` phase; the allocation
        search and timing-model phases nest inside it and keep their own
        (exclusive) time.  The allocator and energy inputs are
        content-memoised in one artifact (``_timing_tables``), fetched
        once per run, and the greedy search itself is memoised on the
        problem's content fingerprint, so rebuilding the same
        accelerator — sweep repeats, sibling ablation variants sharing a
        config — skips both.

        The epoch is priced on ``config`` by a
        :class:`~repro.backends.SimulationBackend` (``backend`` names one
        explicitly); either left ``None`` is the current session's, see
        :func:`repro.runtime.current_session`.  The
        allocation plan and the activity-count energy model are
        backend-independent: every engine prices the *same* replica
        assignment, so backends differ only in how operations turn into
        nanoseconds.
        """
        engine = resolve_backend(backend)
        timing = self.build_timing_model(workload, config)
        stages = timing.stages
        tables = self._timing_tables(timing)
        problem = self._build_problem(timing, tables)
        allocation = self.allocator(problem)
        replicas = allocation.replicas
        replica_vector = np.asarray(replicas, dtype=np.int64)

        epoch = engine.simulate_epoch(EpochProgram(
            timing=timing,
            replicas=replica_vector,
            schedule=self.schedule,
            microbatches_per_batch=MICROBATCHES_PER_BATCH,
        ))
        pipeline = epoch.pipeline
        energy = run_energy(
            tables["energy"], tables["crossbars"], replica_vector, pipeline,
        )
        return AcceleratorReport(
            accelerator=self.name,
            workload=workload.name,
            total_time_ns=pipeline.total_time_ns,
            energy=energy,
            pipeline=pipeline,
            allocation=allocation,
            stage_names=[s.name for s in stages],
            replicas=np.asarray(replicas),
            crossbars_reserved=int(
                (replicas * problem.crossbars_per_replica).sum()
            ),
            backend=epoch.backend,
        )
