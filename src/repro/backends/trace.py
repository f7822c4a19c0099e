"""The trace backend: compile epochs to instruction streams, replay per lane.

PIMSIM-NN's argument is that PIM numbers should come from an explicit
instruction stream, not a closed-form average.  This backend lowers one
GCN epoch to exactly that: a structured-array record stream of
``(stage, opcode, micro-batch, tile, operand-shape/count, dependency)``
entries, one opcode block per (stage, opcode) —

========  ===========================================================
opcode    meaning
========  ===========================================================
``MVM``   lane-parallel crossbar activation streams: ``count`` input
          streams of ``tile`` serialised row-tile activations each
          (CO/LC: one stream per micro-batch vertex, ``tile`` = input
          row tiles; AG/GC: one stream per edge, ``tile`` = 1)
``SCAN``  lane-parallel adjacency-row scan reads (AG/GC): ``count``
          vertices x ``tile`` grouped read cycles
``WRITE`` serialised vertex/weight update rows for one epoch phase
          (``PARTIAL`` = important-only round, ``FULL`` = minor
          refresh); writes parallelise across crossbars, not lanes
``RELOAD``serialised ReFlip source-row rewrites (``count`` may be
          fractional: ``edges x reload_penalty``)
========  ===========================================================

The compiled *epoch* is the unit: every stage's stream, in (stage,
opcode block, micro-batch) order.  Compilation is replica-independent —
the stream describes *work*, not its distribution — so one compiled
epoch per ``(graph, model shape, micro-batch, config, params, update
plan)`` is memoised through the content-keyed
:class:`~repro.perf.cache.ArtifactCache` (``"trace_programs"``
namespace) and shared by every accelerator that prices the same
workload.  Each entry holds the records and every stage's
:func:`program_stats` op totals, so pricing an epoch is one lookup and
its accounting reads the same entry (only when someone asks for it).
Compilation touches no RNG stream (tests/backends/test_trace_backend.py
asserts this).

Replay is a vectorized scoreboard: each compute record's ``count``
streams are dealt round-robin over its stage's ``lanes`` (replicas x
intrinsic edge parallelism, capped at the available work items), so the
critical lane executes ``ceil(count / lanes)`` streams of ``tile``
serialised activations — the *discrete* occupancy the analytic model's
``work / lanes`` division averages away.  Serialised write/reload
records add on top, mixed over the update plan's minor period (or pinned
to one phase for the co-simulation).  One ``bincount`` prices the whole
epoch.  Trace latencies are therefore entrywise >= analytic ones, equal
exactly when the lane count divides the work — the cross-validation
experiment quantifies the gap.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.backends.protocol import EpochProgram, SimulationBackend
from repro.perf import profile
from repro.runtime import current_session
from repro.stages.latency import (
    StageTimingModel,
    effective_lanes,
    stage_cost_factor,
)
from repro.stages.stage import StageKind

#: Instruction-record layout.  ``stage`` is the record's position in the
#: stage chain.  ``count`` is float64 because reload rows scale by the
#: (possibly fractional) reload penalty; compute counts are integral.
#: ``dep`` orders the stream: 0 = lane-parallel compute, 1 = serialised
#: update phase (retires after the compute wave).
TRACE_DTYPE = np.dtype([
    ("stage", np.int32),
    ("opcode", np.uint8),
    ("mb", np.int32),
    ("tile", np.int32),
    ("count", np.float64),
    ("unit_ns", np.float64),
    ("dep", np.uint8),
])

OP_MVM = 1
OP_SCAN = 2
OP_WRITE_PARTIAL = 3
OP_WRITE_FULL = 4
OP_RELOAD = 5

OPCODE_NAMES = {
    OP_MVM: "MVM",
    OP_SCAN: "SCAN",
    OP_WRITE_PARTIAL: "WRITE.P",
    OP_WRITE_FULL: "WRITE.F",
    OP_RELOAD: "RELOAD",
}

CACHE_NAMESPACE = "trace_programs"
#: Layout revision of a ``"trace_programs"`` entry, part of its key:
#: bump it whenever the entry's contents change, so a disk tier written
#: by older code is never read back.
_PROGRAM_REVISION = "epoch-records-and-stage-op-totals-v2"


def _records(
    stage_index: int,
    opcode: int,
    mbs: np.ndarray,
    tile,
    count,
    unit_ns: float,
    dep: int,
) -> np.ndarray:
    out = np.empty(mbs.size, dtype=TRACE_DTYPE)
    out["stage"] = stage_index
    out["opcode"] = opcode
    out["mb"] = mbs
    out["tile"] = tile
    out["count"] = count
    out["unit_ns"] = unit_ns
    out["dep"] = dep
    return out


def compile_stage_program(
    timing: StageTimingModel,
    stage_index: int,
) -> np.ndarray:
    """Lower one stage's epoch to its instruction stream (uncached).

    Deterministic: equal lowering inputs produce byte-equal record
    arrays, ordered by (opcode block, micro-batch).  Each opcode block
    holds one record per micro-batch, so no micro-batch has two records
    of one opcode; :func:`replay_stage_times` relies on this for
    ``RELOAD``, whose per-micro-batch sum it adds after the write mix.
    """
    stage = timing.stages[stage_index]
    cfg = timing.config
    params = timing.params
    workload = timing.workload
    num_mbs = workload.num_microbatches
    mbs = np.arange(num_mbs, dtype=np.int32)
    sizes = workload.microbatch_sizes()
    per_row = cfg.row_write_latency_ns * params.write_pulses
    factor = stage_cost_factor(stage, cfg, params)

    def block(opcode, tile, count, unit_ns, dep):
        return _records(stage_index, opcode, mbs, tile, count, unit_ns, dep)

    blocks = []
    if stage.kind.is_edge_proportional:
        edges = workload.microbatch_edge_counts()
        blocks.append(block(OP_MVM, 1, edges, cfg.mvm_latency_ns, 0))
        blocks.append(block(OP_SCAN, factor, sizes, cfg.read_latency_ns, 0))
        if params.reload_penalty > 0.0:
            blocks.append(block(
                OP_RELOAD, 1, edges * params.reload_penalty,
                cfg.row_write_latency_ns, 1,
            ))
    else:
        blocks.append(block(OP_MVM, factor, sizes, cfg.mvm_latency_ns, 0))

    if stage.kind is StageKind.AGGREGATION:
        partial, full = timing._write_row_maxima()
        blocks.append(block(OP_WRITE_PARTIAL, 1, partial, per_row, 1))
        blocks.append(block(OP_WRITE_FULL, 1, full, per_row, 1))
    elif stage.kind is StageKind.COMBINATION:
        # The once-per-epoch weight rewrite, amortised over micro-batches
        # via the unit latency; identical in both epoch phases.
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        amortised = per_row / num_mbs
        blocks.append(block(OP_WRITE_PARTIAL, 1, rows, amortised, 1))
        blocks.append(block(OP_WRITE_FULL, 1, rows, amortised, 1))

    return np.concatenate(blocks) if blocks else np.empty(0, TRACE_DTYPE)


def compile_epoch_program(timing: StageTimingModel) -> np.ndarray:
    """Lower the whole epoch (uncached): every stage's program in stage
    order, so records run in (stage, opcode block, micro-batch) order."""
    return np.concatenate([
        compile_stage_program(timing, index)
        for index in range(len(timing.stages))
    ])


def program_cache_key(timing: StageTimingModel) -> str:
    """Content key of one compiled epoch.

    Mirrors the analytic path's timing-table key: the program is a pure
    function of (graph, model shape, micro-batch, hardware config,
    calibration params, update plan) — the timing model's
    :meth:`~StageTimingModel.content_fingerprint`, computed once per
    model — and is replica-independent, so accelerators differing only
    in allocation share it.
    """
    return f"{_PROGRAM_REVISION}:{timing.content_fingerprint()}"


def _program_entry(
    timing: StageTimingModel,
) -> Tuple[np.ndarray, Tuple[Dict[str, float], ...]]:
    """The memoised ``(records, per-stage op totals)`` pair of an epoch."""
    def compile_entry():
        records = compile_epoch_program(timing)
        stage_of = records["stage"]
        return records, tuple(
            program_stats(records[stage_of == index])
            for index in range(len(timing.stages))
        )

    return current_session().cache.get_or_compute(
        CACHE_NAMESPACE, program_cache_key(timing), compile_entry,
    )


def compiled_epoch_program(timing: StageTimingModel) -> np.ndarray:
    """The memoised compiled epoch (ArtifactCache two-tier lookup)."""
    return _program_entry(timing)[0]


#: Replay bin of each opcode: compute, partial write, full write, reload.
_OPCODE_BIN = np.zeros(max(OPCODE_NAMES) + 1, dtype=np.int64)
_OPCODE_BIN[[OP_WRITE_PARTIAL, OP_WRITE_FULL, OP_RELOAD]] = (1, 2, 3)


def replay_stage_times(
    records: np.ndarray,
    timing: StageTimingModel,
    replicas: np.ndarray,
    full_round=None,
) -> np.ndarray:
    """Scoreboard replay of a compiled epoch: the stage-time matrix.

    ``replicas`` holds one count per stage.  Compute records deal their
    streams round-robin over their stage's lanes (critical-lane time
    ``ceil(count / lanes) * tile * unit``); write/reload records
    serialise on top, with the two write phases mixed by the update
    plan's minor period unless ``full_round`` pins one.

    One ``bincount`` over (opcode class x stage x micro-batch) bins sums
    every record, each bin from 0.0 in stream order.  Reloads add after
    the write mix, which equals adding each ``RELOAD`` record in turn
    because a compiled epoch holds at most one per (stage, micro-batch)
    (see :func:`compile_stage_program`; ``tests/oracles/trace.py`` keeps
    the record-by-record loop for one stage).
    """
    workload = timing.workload
    num_mbs = workload.num_microbatches
    column = np.asarray(replicas, dtype=np.int64)[:, None]
    sizes = workload.microbatch_sizes()
    edges = workload.microbatch_edge_counts()
    parallelism = timing.params.intrinsic_edge_parallelism
    edge_rows = np.array([
        stage.kind.is_edge_proportional for stage in timing.stages
    ])
    lanes = np.where(
        edge_rows[:, None],
        effective_lanes(True, column, sizes, edges, parallelism),
        effective_lanes(False, column, sizes, edges, parallelism),
    )

    cell = records["stage"] * num_mbs + records["mb"]
    count = records["count"]
    opcode_bin = _OPCODE_BIN[records["opcode"]]
    occupancy = np.where(
        opcode_bin == 0, np.ceil(count / lanes.ravel()[cell]), count,
    )
    compute, partial, full, reload = np.bincount(
        opcode_bin * lanes.size + cell,
        weights=occupancy * records["tile"] * records["unit_ns"],
        minlength=4 * lanes.size,
    ).reshape((4,) + lanes.shape)
    if full_round is None:
        period = timing.update_plan.minor_period
        times = compute + ((period - 1) * partial + full) / period
    else:
        times = compute + (full if full_round else partial)
    return times + reload


def program_stats(records: np.ndarray) -> Dict[str, float]:
    """Operation totals of one compiled stage program (conservation)."""
    def total(opcode: int) -> float:
        rows = records[records["opcode"] == opcode]
        return float((rows["count"] * rows["tile"]).sum())

    return {
        "instructions": int(records.size),
        "mvm_activations": total(OP_MVM),
        "scan_reads": total(OP_SCAN),
        "write_rows_partial": total(OP_WRITE_PARTIAL),
        "write_rows_full": total(OP_WRITE_FULL),
        "reload_rows": total(OP_RELOAD),
    }


class TraceBackend(SimulationBackend):
    """Compile-once / replay-per-epoch instruction-level engine."""

    name = "trace"

    def _entry(self, program: EpochProgram):
        """The program's compiled epoch, looked up once per program."""
        return program.lowered(
            self.name, lambda: _program_entry(program.timing),
        )

    @profile.phase(profile.PHASE_TIMING)
    def stage_time_matrix(self, program: EpochProgram) -> np.ndarray:
        records, _ = self._entry(program)
        return replay_stage_times(
            records, program.timing, program.replica_vector(),
            full_round=program.full_round,
        )

    def service_times_ns(
        self,
        model: Any,  # repro.serving.cost.ServingCostModel
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Serving batch costs under per-lane ceil occupancy.

        Same lanes and per-stage constants as the analytic law, but the
        dispatched streams are dealt to discrete lanes — an inference
        batch whose size does not divide the replica count pays for its
        ragged last round, which the analytic division amortises away.
        """
        sizes_f = np.asarray(sizes, dtype=np.float64)
        edges_f = np.asarray(edges, dtype=np.float64)
        out = np.empty((model.num_stages, sizes_f.size))
        for s in range(model.num_stages):
            edge_stage = bool(model.is_edge_stage[s])
            lanes = effective_lanes(
                edge_stage, float(model.replicas[s]), sizes_f, edges_f,
                model.intrinsic_edge_parallelism,
            )
            if edge_stage:
                out[s] = (
                    np.ceil(edges_f / lanes) * model.mvm_latency_ns
                    + np.ceil(sizes_f / lanes)
                    * model.stage_factor[s] * model.read_latency_ns
                )
            else:
                out[s] = (
                    np.ceil(sizes_f / lanes)
                    * model.stage_factor[s] * model.mvm_latency_ns
                )
        return np.rint(out).astype(np.int64)

    def epoch_stats(self, program: EpochProgram) -> Dict[str, Any]:
        _, stage_totals = self._entry(program)
        per_stage = {}
        totals: Dict[str, float] = {}
        for stage, cached in zip(program.timing.stages, stage_totals):
            # A copy: callers own their stats, the cached totals stay put.
            stats = dict(cached)
            per_stage[stage.name] = stats
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["stages"] = per_stage
        return totals


TRACE_BACKEND = TraceBackend()
