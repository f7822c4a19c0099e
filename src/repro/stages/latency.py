"""Analytic per-stage latency model (the NeuroSim-style cost core).

Serialisation structure (documented in DESIGN.md section 4):

* **Row tiles serialise** within a replica — partial sums accumulate
  through the shared S+A chain, so a logical MVM over a mapped matrix with
  ``rt`` row tiles takes ``rt`` crossbar activations.  **Column tiles run
  in parallel** (independent ADC lanes).
* **CO/LC stages** stream one input row per micro-batch vertex:
  ``T = b * rt(d_in) * mvm_latency / replicas``.
* **AG/GC stages** are *edge-proportional*: each neighbour contributes one
  input slot (the paper's row-major execution), plus a sparse scan of the
  full-length adjacency row in groups of ``scan_group_tiles`` row tiles:
  ``T = (edges(mb) * mvm_latency + b * ceil(rt(N)/g) * read_latency) / r``.
* **Vertex updating** (AG only): a micro-batch's freshly combined features
  are written into the mapped feature matrix.  Writes serialise within a
  crossbar (each row takes ``write_pulses`` program-verify pulses) and
  parallelise across crossbars, so the round costs the per-crossbar
  maximum — the quantity ISU's interleaved mapping balances (Fig. 7).
* **Replicas** split a micro-batch's input rows, so effective speedup caps
  at the micro-batch size.
* **ReFlip's reload penalty**: its column-major execution re-writes one
  source-vertex row per processed edge (``reload_penalty`` rows per edge),
  which is why ReFlip loses energy on dense graphs (Section VII-B).

Both simulation engines read the per-stage constants
(:func:`stage_cost_factor`) and the lanes rule (:func:`effective_lanes`)
defined here; the analytic engine prices work with the closed form
:func:`compute_law_ns` (``work / lanes``), the trace engine per lane
(``ceil(work / lanes)``, ``repro.backends.trace``).

All latencies are nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.hardware.config import WRITE_PULSES, HardwareConfig
from repro.mapping.selective import UpdatePlan, build_update_plan
from repro.mapping.tiling import plan_tiling
from repro.stages.stage import StageKind, StageSpec
from repro.stages.workload import Workload
from repro.perf import cache_key, profile


@dataclass(frozen=True)
class TimingParams:
    """Calibration constants of the analytic model.

    ``scan_group_tiles``: adjacency rows are scanned for non-empty
    segments at a granularity of this many row tiles per read cycle.
    ``write_pulses``: ReRAM program-verify pulses per row write (tens of
    pulses is typical for multi-level cells).
    ``reload_penalty``: extra source-row writes per edge (0 for all
    accelerators except ReFlip's hybrid execution, which uses 1.0).
    ``intrinsic_edge_parallelism``: replica-independent parallel factor on
    edge-proportional stages; ReFlip's hybrid row/column execution engages
    several feature row-tiles concurrently without explicit replicas, which
    is what it trades the reload penalty for.
    """

    scan_group_tiles: int = 4
    write_pulses: int = WRITE_PULSES
    reload_penalty: float = 0.0
    intrinsic_edge_parallelism: int = 1

    def __post_init__(self) -> None:
        if self.scan_group_tiles < 1:
            raise PipelineError("scan_group_tiles must be >= 1")
        if self.write_pulses < 1:
            raise PipelineError("write_pulses must be >= 1")
        if self.reload_penalty < 0:
            raise PipelineError("reload_penalty must be >= 0")
        if self.intrinsic_edge_parallelism < 1:
            raise PipelineError("intrinsic_edge_parallelism must be >= 1")


#: The calibration every design point but ReFlip prices with.  One shared
#: instance: :func:`~repro.perf.cache.cache_key` remembers a frozen
#: dataclass's encoding per instance, so every timing model's key reads
#: these bytes instead of walking a fresh ``TimingParams()``.
DEFAULT_TIMING_PARAMS = TimingParams()


@dataclass(frozen=True)
class StageActivity:
    """Event counts for one (stage, micro-batch) execution — energy input."""

    mvm_row_streams: int = 0      # logical input rows streamed (x row tiles)
    rows_written: int = 0         # total feature/weight rows programmed
    buffer_bytes: float = 0.0
    offchip_bytes: float = 0.0


def stage_cost_factor(
    stage: StageSpec,
    config: HardwareConfig,
    params: TimingParams,
) -> int:
    """Serialised crossbar cycles one work item costs on ``stage``.

    AG/GC: the adjacency-scan read groups per vertex (the full-length
    row's row tiles, ``scan_group_tiles`` per read cycle).  CO/LC: the
    input-row tiles each streamed vertex row activates in series.
    """
    if stage.kind.is_edge_proportional:
        row_tiles = -(-stage.mapped_rows // config.crossbar_rows)
        return -(-row_tiles // params.scan_group_tiles)
    return -(-stage.input_dim // config.crossbar_rows)


def effective_lanes(
    edge_stage: bool,
    replicas,
    sizes: np.ndarray,
    edges: np.ndarray,
    intrinsic_edge_parallelism: int,
) -> np.ndarray:
    """Lanes a batch's work spreads over, per batch (float64, >= 1).

    AG/GC: replicas x intrinsic edge parallelism, capped at the batch's
    edge count.  CO/LC: replicas, capped at the batch's vertex count.
    ``replicas`` broadcasts against the batches, so a ``(stages, 1)``
    column gives a ``(stages, batches)`` table.
    """
    if edge_stage:
        lanes = np.minimum(
            replicas * intrinsic_edge_parallelism, np.maximum(1, edges),
        )
    else:
        lanes = np.minimum(replicas, sizes)
    return np.maximum(lanes, 1).astype(np.float64, copy=False)


def compute_law_ns(
    edge_stage: bool,
    sizes: np.ndarray,
    edges: np.ndarray,
    factor,
    lanes: np.ndarray,
    mvm_latency_ns: float,
    read_latency_ns: float,
) -> np.ndarray:
    """Closed-form MVM + scan latency per batch: ``work / lanes``.

    AG/GC: one MVM per edge plus ``factor`` scan reads per vertex.
    CO/LC: ``factor`` serialised MVMs per vertex.  The trace backend
    prices the same work as ``ceil(work / lanes)`` per lane instead.
    """
    if edge_stage:
        scan = sizes * factor * read_latency_ns
        return (edges * mvm_latency_ns + scan) / lanes
    return sizes * factor * mvm_latency_ns / lanes


class StageTimingModel:
    """Computes per-(stage, micro-batch) latency and activity for a workload.

    Parameters
    ----------
    workload:
        The (graph, model, micro-batch) job.
    config:
        Hardware constants.
    params:
        Model calibration constants.
    update_plan:
        Vertex update scheme; defaults to full updating with index mapping
        (the Serial / ReGraphX behaviour).
    """

    def __init__(
        self,
        workload: Workload,
        config: HardwareConfig,
        params: TimingParams = DEFAULT_TIMING_PARAMS,
        update_plan: Optional[UpdatePlan] = None,
    ) -> None:
        self._workload = workload
        self._config = config
        self._params = params
        if update_plan is None:
            update_plan = build_update_plan(
                workload.graph, strategy="full",
                rows_per_crossbar=config.crossbar_rows,
            )
        self._plan = update_plan
        self._stages = workload.stage_chain()  # the workload's, shared
        # Lazily built vectors shared by the whole-epoch methods.
        self._vector_cache: Dict[str, np.ndarray] = {}
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload:
        """The workload being modelled."""
        return self._workload

    @property
    def config(self) -> HardwareConfig:
        """Hardware constants in use."""
        return self._config

    @property
    def params(self) -> TimingParams:
        """Calibration constants in use."""
        return self._params

    @property
    def update_plan(self) -> UpdatePlan:
        """The vertex update scheme in use."""
        return self._plan

    @property
    def stages(self) -> Tuple[StageSpec, ...]:
        """The 4L stage chain (the workload's read-only tuple)."""
        return self._stages

    def content_fingerprint(self) -> str:
        """Digest of every input the model's outputs read, computed once.

        The graph, model shape, micro-batch, hardware config, calibration
        params and update plan are all fixed at construction; the
        accelerator's timing-table key and the trace backend's program
        keys are both built from this one digest.  It stays cheap on a
        warm run: the graph and plan digests are memoised on them, and
        the session's config and the shared calibration constants
        (:data:`DEFAULT_TIMING_PARAMS`, the catalog's ReFlip params) have
        their encodings remembered by ``cache_key``, so no dataclass is
        walked field by field.
        """
        if self._fingerprint is None:
            workload = self._workload
            self._fingerprint = cache_key(
                workload.graph,
                tuple(workload.layer_dims),
                workload.micro_batch,
                self._config,
                self._params,
                self._plan,
            )
        return self._fingerprint

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def crossbars_per_replica(self, stage: StageSpec) -> int:
        """Crossbars one replica of the stage's mapped matrix occupies."""
        plan = plan_tiling(stage.mapped_rows, stage.mapped_cols, self._config)
        return plan.num_crossbars

    def max_useful_replicas(self, stage: StageSpec) -> int:
        """Replicas beyond this add no speedup (inputs can't split further).

        CO/LC stages split a micro-batch's input rows, capping at the
        micro-batch size (Table VI: ~60 CO replicas at b=64 on ddi).
        AG/GC stages split *edge* work, capping at the mean per-micro-batch
        edge count (Table VI: hundreds of AG replicas on ddi).
        """
        if stage.kind.is_edge_proportional:
            return max(1, int(self._workload.average_microbatch_edges()))
        return self._workload.micro_batch

    def _col_tiles(self, cols: int) -> int:
        return -(-cols // self._config.logical_cols)

    # ------------------------------------------------------------------
    # Whole-epoch latency vectors (one entry per micro-batch); their
    # per-micro-batch oracle is tests/oracles/stages.py.
    # ------------------------------------------------------------------
    def _write_row_maxima(self) -> tuple:
        """Busiest-crossbar row counts for every micro-batch at once.

        Returns ``(partial_max, full_max)`` vectors over micro-batches.
        One flat ``bincount`` over the (micro-batch, crossbar) pairs
        replaces ``num_mbs`` separate intersect + histogram passes.
        """
        cached = self._vector_cache.get("write_maxima")
        if cached is not None:
            return cached
        workload = self._workload
        num_mbs = workload.num_microbatches
        mapping = self._plan.mapping
        num_xb = mapping.num_crossbars
        crossbar_of = mapping.crossbar_of
        mb_of = (
            np.arange(workload.num_vertices, dtype=np.int64)
            // workload.micro_batch
        )
        full = np.bincount(
            mb_of * num_xb + crossbar_of, minlength=num_mbs * num_xb,
        ).reshape(num_mbs, num_xb).max(axis=1)
        important = self._plan.important
        if important.size:
            partial = np.bincount(
                mb_of[important] * num_xb + crossbar_of[important],
                minlength=num_mbs * num_xb,
            ).reshape(num_mbs, num_xb).max(axis=1)
        else:
            partial = np.zeros(num_mbs, dtype=np.int64)
        self._vector_cache["write_maxima"] = (partial, full)
        return partial, full

    def _important_counts(self) -> np.ndarray:
        """How many important vertices each micro-batch contains."""
        counts = self._vector_cache.get("important_counts")
        if counts is None:
            bounds = self._workload.microbatch_boundaries()
            counts = np.diff(np.searchsorted(self._plan.important, bounds))
            self._vector_cache["important_counts"] = counts
        return counts

    def compute_times_ns(self, stage: StageSpec, replicas: int = 1) -> np.ndarray:
        """MVM + scan latency of every micro-batch at ``replicas`` copies."""
        if replicas < 1:
            raise PipelineError("replicas must be >= 1")
        cfg = self._config
        edge_stage = stage.kind.is_edge_proportional
        sizes = self._workload.microbatch_sizes().astype(np.float64)
        edges = self._workload.microbatch_edge_counts()
        lanes = effective_lanes(
            edge_stage, replicas, sizes, edges,
            self._params.intrinsic_edge_parallelism,
        )
        return compute_law_ns(
            edge_stage, sizes, edges,
            stage_cost_factor(stage, cfg, self._params), lanes,
            cfg.mvm_latency_ns, cfg.read_latency_ns,
        )

    def write_times_ns(self, stage: StageSpec) -> np.ndarray:
        """Update-write latency charged to every micro-batch of ``stage``.

        AG stages write the micro-batch's combined features into the mapped
        feature matrix; the expected cost mixes the every-epoch round over
        important vertices with the 1-in-``minor_period`` full refresh.
        CO stages absorb the (small) per-epoch weight rewrite, amortised
        over micro-batches.  Replicas do not reduce write time: every
        replica is programmed, in parallel across replicas (distinct
        crossbars).
        """
        cfg = self._config
        num_mbs = self._workload.num_microbatches
        per_row = cfg.row_write_latency_ns * self._params.write_pulses
        if stage.kind is StageKind.AGGREGATION:
            period = self._plan.minor_period
            partial, full = self._write_row_maxima()
            expected = ((period - 1) * partial + full) / period
            return expected * per_row
        if stage.kind is StageKind.COMBINATION:
            rows = min(cfg.crossbar_rows, stage.mapped_rows)
            return np.full(num_mbs, rows * per_row / num_mbs)
        return np.zeros(num_mbs)

    def phase_write_times_ns(
        self,
        stage: StageSpec,
        full_round: bool,
    ) -> np.ndarray:
        """Write-time vector for one epoch *phase* (not the expected mix).

        Unlike :meth:`write_times_ns`, which averages minor-refresh and
        important-only rounds by the minor period, this prices every
        micro-batch for a specific phase — what the co-simulation charges
        epoch by epoch.  Matches the per-micro-batch write oracle in
        ``tests/oracles/cosim.py``.
        """
        cfg = self._config
        num_mbs = self._workload.num_microbatches
        per_row = cfg.row_write_latency_ns * self._params.write_pulses
        if stage.kind is StageKind.AGGREGATION:
            partial, full = self._write_row_maxima()
            rows = full if full_round else partial
            return rows * per_row
        if stage.kind is StageKind.COMBINATION:
            rows = min(cfg.crossbar_rows, stage.mapped_rows)
            return np.full(num_mbs, rows * per_row / num_mbs)
        return np.zeros(num_mbs)

    def reload_times_ns(self, stage: StageSpec) -> np.ndarray:
        """ReFlip-style repeated source-vertex loads (0 unless configured)."""
        num_mbs = self._workload.num_microbatches
        if (
            self._params.reload_penalty == 0.0
            or not stage.kind.is_edge_proportional
        ):
            return np.zeros(num_mbs)
        return (
            self._workload.microbatch_edge_counts()
            * self._params.reload_penalty
            * self._config.row_write_latency_ns
        )

    def microbatch_times_ns(
        self,
        stage: StageSpec,
        replicas: int = 1,
    ) -> np.ndarray:
        """Full latency of every (stage, micro-batch) execution."""
        return (
            self.compute_times_ns(stage, replicas)
            + self.write_times_ns(stage)
            + self.reload_times_ns(stage)
        )

    @profile.phase(profile.PHASE_TIMING)
    def stage_time_matrix(self, replicas=None) -> np.ndarray:
        """The full ``(num_stages, num_microbatches)`` latency matrix.

        ``replicas`` may be ``None`` (1 everywhere), a scalar, or a
        per-stage vector — the allocator's assignment.  This is what the
        accelerator models and the profiler feed to ``simulate_pipeline``.
        """
        num_stages = len(self._stages)
        if replicas is None:
            replica_vec = np.ones(num_stages, dtype=np.int64)
        else:
            replica_vec = np.broadcast_to(
                np.asarray(replicas, dtype=np.int64), (num_stages,)
            )
        return np.stack([
            self.microbatch_times_ns(stage, int(replica_vec[i]))
            for i, stage in enumerate(self._stages)
        ])

    @profile.phase(profile.PHASE_TIMING)
    def stage_activity_totals(self, stage: StageSpec) -> StageActivity:
        """Whole-epoch event counts of ``stage`` (energy input), one pass."""
        cfg = self._config
        sizes = self._workload.microbatch_sizes()
        col_tiles = self._col_tiles(stage.mapped_cols)
        value_bytes = max(1, cfg.input_bits // 8)
        pulses = self._params.write_pulses

        if stage.kind.is_edge_proportional:
            edges = self._workload.microbatch_edge_counts()
            streams = int(edges.sum())
            buffer_bytes = float(
                (edges * value_bytes
                 + sizes * stage.mapped_cols * value_bytes).sum()
            )
        else:
            streams = int(sizes.sum()) * stage_cost_factor(
                stage, cfg, self._params,
            )
            buffer_bytes = float(
                (sizes * (stage.input_dim + stage.mapped_cols)
                 * value_bytes).sum()
            )

        rows_written = 0
        if stage.kind is StageKind.AGGREGATION:
            period = self._plan.minor_period
            expected = (
                (period - 1) * self._important_counts() + sizes
            ) / period
            rows_written = int(
                np.round(expected * pulses * col_tiles).astype(np.int64).sum()
            )
        elif stage.kind is StageKind.COMBINATION:
            num_mbs = self._workload.num_microbatches
            rows = min(cfg.crossbar_rows, stage.mapped_rows)
            rows_written = num_mbs * int(round(
                rows * pulses * col_tiles / num_mbs
            ))
        if self._params.reload_penalty > 0 and stage.kind.is_edge_proportional:
            edges = self._workload.microbatch_edge_counts()
            rows_written += int(
                np.round(edges * self._params.reload_penalty * pulses
                         * col_tiles).astype(np.int64).sum()
            )

        return StageActivity(
            mvm_row_streams=streams,
            rows_written=rows_written,
            buffer_bytes=buffer_bytes,
            offchip_bytes=buffer_bytes * 0.5,
        )

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def mean_stage_time_ns(self, stage: StageSpec, replicas: int = 1) -> float:
        """Mean per-micro-batch latency across the epoch (allocator input)."""
        return float(
            self.microbatch_times_ns(stage, replicas).sum()
            / self._workload.num_microbatches
        )
