"""AcceleratorModel: dataset + model + hardware -> time, energy, trace.

Every evaluated system (Serial, SlimGNN-like, ReGraphX, ReFlip,
GoPIM-Vanilla, GoPIM, and the Fig. 14 ablation variants) is one
:class:`AcceleratorModel` configuration: a pipeline schedule, a replica
allocation policy, an update strategy, and optional quirks (ReFlip's
reload penalty, SlimGNN's input pruning).  ``run`` produces an
:class:`AcceleratorReport` with the makespan, a full energy breakdown, the
per-stage idle fractions, and the replica assignment.

Energy accounting (matching Fig. 13b/14b's structure):

* dynamic MVM/write energy comes from per-(stage, micro-batch) activity
  counts — nearly schedule-independent, except ISU cuts write events and
  ReFlip adds reload writes;
* idle leakage charges every reserved crossbar for the time its pool is
  not busy — the term pipelining and replica balancing attack;
* static chip power (controller, weight computer) integrates over the
  makespan.

What no replica count changes is computed once per timing model and
kept in its ``"timing-tables"`` artifact (:class:`EnergyConstants`): the
crossbar read, write, peripheral and off-chip totals, each stage's
buffer energy and handoff bytes, and the leakage and static powers.  A
run adds only what its replicas and schedule decide: each pool's idle
leakage and NoC handoff, and static energy over its makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.backends import EpochProgram, resolve_backend
from repro.errors import ConfigError
from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarStats
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.hardware.noc import MeshNoc, handoff_hops
from repro.mapping.selective import build_update_plan
from repro.perf import profile
from repro.pipeline.simulator import PipelineResult, ScheduleMode
from repro.runtime import current_session
from repro.stages.latency import StageTimingModel, TimingParams
from repro.stages.workload import Workload

AllocatorFn = Callable[[AllocationProblem], AllocationResult]

#: Layout revision of the ``"timing-tables"`` artifact, part of its key:
#: bump it whenever the artifact's contents change, so a disk tier
#: written by older code is never read back.
_TABLES_REVISION = "stage-energy-constants-v2"


@dataclass(frozen=True)
class EnergyConstants:
    """The replica-independent part of one timing model's epoch energy.

    The crossbar read, write, peripheral and off-chip fields are the
    stage terms summed in stage order from 0.0, as the per-run
    accounting used to add them.  ``buffer_pj`` and ``handoff_bytes``
    stay per stage: a run adds each stage's buffer energy, then that
    stage's NoC handoff, whose hop count depends on its pool size.
    """

    crossbar_read_pj: float
    crossbar_write_pj: float
    peripheral_pj: float
    offchip_pj: float
    buffer_pj: Tuple[float, ...]
    handoff_bytes: Tuple[float, ...]
    idle_power_mw: float      # per reserved-but-idle crossbar
    static_power_mw: float
    crossbars_per_tile: int
    mesh_hops: float          # the mesh's average hop count
    hop_pj_per_byte: float

    @classmethod
    def of(
        cls,
        timing: StageTimingModel,
        crossbars: np.ndarray,
    ) -> "EnergyConstants":
        """Price every stage's activity totals on ``timing``'s chip.

        ``crossbars`` is each stage's crossbars per replica.  The
        :class:`EnergyModel` and :class:`MeshNoc` argument checks run
        here, on the constants.
        """
        config = timing.config
        model = EnergyModel(config)
        noc = MeshNoc(config)
        dynamic = EnergyBreakdown()
        buffer_pj = []
        handoff_bytes = []
        for per_replica, stage in zip(crossbars.tolist(), timing.stages):
            act = timing.stage_activity_totals(stage)
            # Replica copies refresh round-robin (one copy per update
            # round) rather than all at once — replicas then serve
            # bounded-stale features, consistent with ISU's staleness
            # budget — so write energy does not scale with the replica
            # count.  ADC/DAC peripherals draw power while converting,
            # i.e. during MVM activations: the crossbar-busy integral is
            # the logical activation count times the MVM latency,
            # invariant to how many replicas or intrinsically-parallel
            # tiles spread the work.  Write rounds are charged per event.
            stats = CrossbarStats(
                mvm_reads=act.mvm_row_streams,
                row_writes=act.rows_written,
                busy_ns=act.mvm_row_streams * config.mvm_latency_ns,
            )
            dynamic.merge(model.crossbar_activity_energy(
                stats, crossbars_active=per_replica,
            ))
            dynamic.merge(model.offchip_energy(act.offchip_bytes))
            buffer_pj.append(model.buffer_energy(act.buffer_bytes).buffer_pj)
            # The handoff's bytes, out of the smallest (one-replica) pool.
            noc.stage_handoff_cost(act.buffer_bytes, per_replica)
            handoff_bytes.append(act.buffer_bytes)
        return cls(
            crossbar_read_pj=dynamic.crossbar_read_pj,
            crossbar_write_pj=dynamic.crossbar_write_pj,
            peripheral_pj=dynamic.peripheral_pj,
            offchip_pj=dynamic.offchip_pj,
            buffer_pj=tuple(buffer_pj),
            handoff_bytes=tuple(handoff_bytes),
            idle_power_mw=model.idle_power_mw,
            static_power_mw=model.static_power_mw,
            crossbars_per_tile=config.crossbars_per_tile,
            mesh_hops=noc.average_hops(),
            hop_pj_per_byte=noc.config.hop_energy_pj_per_byte,
        )


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


def _serial_allocator(problem: AllocationProblem) -> AllocationResult:
    return AllocationResult(
        problem=problem,
        replicas=np.ones(problem.num_stages, dtype=np.int64),
        strategy="serial",
    )


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
        Latency-model constants (ReFlip overrides ``reload_penalty``).
    predicted_times:
        Optional stage-name -> predicted-time map fed to the allocator
        instead of the true model times (GoPIM's ML predictor path).
    prune_graph:
        SlimGNN-like input-subgraph pruning applied to AG/GC edge work.
    microbatches_per_batch:
        Batch granularity for INTRA_BATCH pipeline drains.
    """

    name: str
    schedule: ScheduleMode = ScheduleMode.INTRA_INTER
    allocator: AllocatorFn = _serial_allocator
    update_strategy: str = "full"
    timing_params: TimingParams = field(default_factory=TimingParams)
    predicted_times: Optional[Dict[str, float]] = None
    time_predictor: Optional[object] = None  # repro.predictor.TimePredictor
    prune_graph: bool = False
    microbatches_per_batch: int = 4
    theta: Optional[float] = None

    # ------------------------------------------------------------------
    def build_timing_model(
        self,
        workload: Workload,
        config: Optional[HardwareConfig] = None,
    ) -> StageTimingModel:
        """The timing model this accelerator runs against, on ``config``
        (default: the current session's hardware)."""
        if config is None:
            config = current_session().config
        effective_workload = workload
        if self.prune_graph:
            from repro.graphs.sparsify import sparsify_by_degree
            from repro.mapping.selective import adaptive_theta

            theta = self.theta or adaptive_theta(workload.graph)
            pruned = sparsify_by_degree(workload.graph, theta)
            effective_workload = Workload(
                graph=pruned,
                layer_dims=workload.layer_dims,
                micro_batch=workload.micro_batch,
                name=workload.name,
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
        through ``repro.perf``.
        Beside the allocator's per-stage arrays, ``"energy"`` holds the
        :class:`EnergyConstants` priced from each stage's
        :meth:`~StageTimingModel.stage_activity_totals`, which no
        replica assignment changes.  Readers never mutate them.
        """
        key = f"{_TABLES_REVISION}:{timing.content_fingerprint()}"

        def compute() -> Dict[str, Any]:
            stages = timing.stages
            crossbars = np.array(
                [timing.crossbars_per_replica(s) for s in stages],
                dtype=np.int64,
            )
            caps = np.array(
                [timing.max_useful_replicas(s) for s in stages],
                dtype=np.int64,
            )
            floors = np.array(
                [AcceleratorModel._floor(timing, s) for s in stages],
            )
            means = np.array(
                [timing.mean_stage_time_ns(s, 1) for s in stages],
            )
            return {
                "crossbars": crossbars,
                "caps": caps,
                "floors": floors,
                "mean_times": means,
                "energy": EnergyConstants.of(timing, crossbars),
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

    @staticmethod
    def _floor(timing: StageTimingModel, stage) -> float:
        """Replica-independent latency floor (update writes + reloads)."""
        floors = timing.write_times_ns(stage) + timing.reload_times_ns(stage)
        return float(floors.sum() / timing.workload.num_microbatches)

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
            microbatches_per_batch=self.microbatches_per_batch,
        ))
        pipeline = epoch.pipeline
        energy = self._energy(tables, pipeline, replica_vector)
        epoch.energy = energy
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

    @staticmethod
    def _energy(
        tables: Dict[str, Any],
        pipeline: PipelineResult,
        replicas: np.ndarray,
    ) -> EnergyBreakdown:
        """One run's energy: the timing model's :class:`EnergyConstants`
        plus what this run's replicas and schedule decide.

        Each field adds its stage terms in stage order from 0.0, so the
        breakdown is bit-identical to merging one breakdown per stage
        term (``tests/oracles/energy.py`` keeps that loop).
        """
        constants = tables["energy"]
        makespan = pipeline.total_time_ns
        idle_pj = 0.0
        buffer_pj = 0.0
        for per_replica, copies, busy_ns, stage_buffer_pj, handoff in zip(
            tables["crossbars"].tolist(), replicas.tolist(),
            pipeline.stage_busy_ns.tolist(), constants.buffer_pj,
            constants.handoff_bytes,
        ):
            pool = copies * per_replica
            idle_pj += (
                max(0.0, makespan - busy_ns) * pool * constants.idle_power_mw
            )
            buffer_pj += stage_buffer_pj
            # Inter-tile handoff of this stage's outputs (adders + bus,
            # Fig. 8); latency overlaps with compute, energy does not.
            hops = handoff_hops(
                pool, constants.crossbars_per_tile, constants.mesh_hops,
            )
            buffer_pj += handoff * hops * constants.hop_pj_per_byte
        return EnergyBreakdown(
            crossbar_read_pj=constants.crossbar_read_pj,
            crossbar_write_pj=constants.crossbar_write_pj,
            peripheral_pj=constants.peripheral_pj,
            buffer_pj=buffer_pj,
            offchip_pj=constants.offchip_pj,
            idle_leakage_pj=idle_pj,
            static_pj=makespan * constants.static_power_mw,
        )
