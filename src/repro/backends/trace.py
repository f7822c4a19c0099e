"""The trace backend: compile epochs to instruction streams, replay per lane.

PIMSIM-NN's argument is that PIM numbers should come from an explicit
instruction stream, not a closed-form average.  This backend lowers one
GCN epoch to exactly that: per (stage, micro-batch), a structured-array
record stream of ``(opcode, tile, operand-shape/count, dependency)``
entries —

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

Compilation is replica-independent — the stream describes *work*, not
its distribution — so one compiled program per ``(graph, model shape,
micro-batch, config, params, update plan, stage)`` is memoised through
the content-keyed :class:`~repro.perf.cache.ArtifactCache`
(``"trace_programs"`` namespace) and shared by every accelerator that
prices the same workload.  Each entry holds the record stream and its
:func:`program_stats` op totals, so pricing and accounting share one
lookup.  Compilation touches no RNG stream
(tests/backends/test_trace_backend.py asserts this).

Replay is a vectorized scoreboard: each compute record's ``count``
streams are dealt round-robin over the stage's ``lanes`` (replicas x
intrinsic edge parallelism, capped at the available work items), so the
critical lane executes ``ceil(count / lanes)`` streams of ``tile``
serialised activations — the *discrete* occupancy the analytic model's
``work / lanes`` division averages away.  Serialised write/reload
records add on top, mixed over the update plan's minor period (or pinned
to one phase for the co-simulation).  Trace latencies are therefore
entrywise >= analytic ones, equal exactly when the lane count divides
the work — the cross-validation experiment quantifies the gap.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.backends.protocol import (
    EpochProgram,
    SimulationBackend,
    register_backend,
)
from repro.perf import profile
from repro.perf.cache import cache_key, get_cache
from repro.stages.latency import StageTimingModel
from repro.stages.stage import StageKind

#: Instruction-record layout.  ``count`` is float64 because reload rows
#: scale by the (possibly fractional) reload penalty; compute counts are
#: integral.  ``dep`` orders the stream: 0 = lane-parallel compute,
#: 1 = serialised update phase (retires after the compute wave).
TRACE_DTYPE = np.dtype([
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
_PROGRAM_REVISION = "records-and-op-totals-v1"


def _records(
    opcode: int,
    mbs: np.ndarray,
    tile,
    count,
    unit_ns: float,
    dep: int,
) -> np.ndarray:
    out = np.empty(mbs.size, dtype=TRACE_DTYPE)
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
    arrays, ordered by (opcode block, micro-batch).
    """
    stage = timing.stages[stage_index]
    cfg = timing.config
    params = timing.params
    workload = timing.workload
    num_mbs = workload.num_microbatches
    mbs = np.arange(num_mbs, dtype=np.int32)
    sizes = workload.microbatch_sizes()
    per_row = cfg.row_write_latency_ns * params.write_pulses

    blocks = []
    if stage.kind.is_edge_proportional:
        edges = workload.microbatch_edge_counts()
        blocks.append(_records(
            OP_MVM, mbs, 1, edges, cfg.mvm_latency_ns, 0,
        ))
        row_tiles = -(-stage.mapped_rows // cfg.crossbar_rows)
        groups = -(-row_tiles // params.scan_group_tiles)
        blocks.append(_records(
            OP_SCAN, mbs, groups, sizes, cfg.read_latency_ns, 0,
        ))
        if params.reload_penalty > 0.0:
            blocks.append(_records(
                OP_RELOAD, mbs, 1, edges * params.reload_penalty,
                cfg.row_write_latency_ns, 1,
            ))
    else:
        row_tiles = -(-stage.input_dim // cfg.crossbar_rows)
        blocks.append(_records(
            OP_MVM, mbs, row_tiles, sizes, cfg.mvm_latency_ns, 0,
        ))

    if stage.kind is StageKind.AGGREGATION:
        partial, full = timing._write_row_maxima()
        blocks.append(_records(
            OP_WRITE_PARTIAL, mbs, 1, partial, per_row, 1,
        ))
        blocks.append(_records(
            OP_WRITE_FULL, mbs, 1, full, per_row, 1,
        ))
    elif stage.kind is StageKind.COMBINATION:
        # The once-per-epoch weight rewrite, amortised over micro-batches
        # via the unit latency; identical in both epoch phases.
        rows = min(cfg.crossbar_rows, stage.mapped_rows)
        amortised = per_row / num_mbs
        blocks.append(_records(
            OP_WRITE_PARTIAL, mbs, 1, rows, amortised, 1,
        ))
        blocks.append(_records(
            OP_WRITE_FULL, mbs, 1, rows, amortised, 1,
        ))

    return np.concatenate(blocks) if blocks else np.empty(0, TRACE_DTYPE)


def _program_key_base(timing: StageTimingModel) -> str:
    """The stage-independent half of the program key, computed once.

    Hashing the graph and update plan dominates a warm lookup, so the
    digest is memoised on the timing-model instance — sound because
    every key input is fixed at the model's construction.
    """
    base = getattr(timing, "_trace_key_base", None)
    if base is None:
        workload = timing.workload
        plan = timing.update_plan
        base = cache_key(
            "trace-program",
            _PROGRAM_REVISION,
            workload.graph,
            tuple(workload.layer_dims),
            workload.micro_batch,
            timing.config,
            timing.params,
            plan.mapping.crossbar_of,
            plan.important,
            float(plan.theta),
            plan.minor_period,
        )
        timing._trace_key_base = base
    return base


def program_cache_key(timing: StageTimingModel, stage_index: int) -> str:
    """Content key of one stage's compiled program.

    Mirrors the analytic path's timing-table key: the program is a pure
    function of (graph, model shape, micro-batch, hardware config,
    calibration params, update plan) plus the stage position — and is
    replica-independent, so accelerators differing only in allocation
    share it.
    """
    return f"{_program_key_base(timing)}:s{stage_index}"


def _program_entry(
    timing: StageTimingModel,
    stage_index: int,
) -> Tuple[np.ndarray, Dict[str, float]]:
    """The memoised ``(records, op totals)`` pair of one stage."""
    def compile_entry() -> Tuple[np.ndarray, Dict[str, float]]:
        records = compile_stage_program(timing, stage_index)
        return records, program_stats(records)

    return get_cache().get_or_compute(
        CACHE_NAMESPACE, program_cache_key(timing, stage_index), compile_entry,
    )


def compiled_stage_program(
    timing: StageTimingModel,
    stage_index: int,
) -> np.ndarray:
    """The memoised compiled program (ArtifactCache two-tier lookup)."""
    return _program_entry(timing, stage_index)[0]


def replay_stage_times(
    records: np.ndarray,
    timing: StageTimingModel,
    stage_index: int,
    replicas: int,
    full_round=None,
) -> np.ndarray:
    """Scoreboard replay: per-micro-batch latency vector for one stage.

    Compute records deal their streams round-robin over the stage's
    lanes (critical-lane time ``ceil(count / lanes) * tile * unit``);
    write/reload records serialise on top, with the two write phases
    mixed by the update plan's minor period unless ``full_round`` pins
    one.
    """
    stage = timing.stages[stage_index]
    workload = timing.workload
    num_mbs = workload.num_microbatches
    sizes = workload.microbatch_sizes().astype(np.int64)
    if stage.kind.is_edge_proportional:
        edges = workload.microbatch_edge_counts().astype(np.int64)
        lanes = np.minimum(
            replicas * timing.params.intrinsic_edge_parallelism,
            np.maximum(1, edges),
        ).astype(np.float64)
    else:
        lanes = np.minimum(replicas, sizes).astype(np.float64)
    lanes = np.maximum(lanes, 1.0)

    times = np.zeros(num_mbs)
    compute = records[records["dep"] == 0]
    if compute.size:
        mb = compute["mb"]
        critical = np.ceil(compute["count"] / lanes[mb])
        np.add.at(
            times, mb, critical * compute["tile"] * compute["unit_ns"],
        )

    partial = np.zeros(num_mbs)
    full = np.zeros(num_mbs)
    for opcode, dest in ((OP_WRITE_PARTIAL, partial), (OP_WRITE_FULL, full)):
        rows = records[records["opcode"] == opcode]
        if rows.size:
            np.add.at(
                dest, rows["mb"],
                rows["count"] * rows["tile"] * rows["unit_ns"],
            )
    if full_round is None:
        period = timing.update_plan.minor_period
        times += ((period - 1) * partial + full) / period
    else:
        times += full if full_round else partial

    reload = records[records["opcode"] == OP_RELOAD]
    if reload.size:
        np.add.at(
            times, reload["mb"],
            reload["count"] * reload["tile"] * reload["unit_ns"],
        )
    return times


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
    """Compile-once / replay-per-tile instruction-level engine."""

    name = "trace"

    @profile.phase(profile.PHASE_TIMING)
    def stage_time_matrix(self, program: EpochProgram) -> np.ndarray:
        timing = program.timing
        replicas = program.replica_vector()
        return np.stack([
            replay_stage_times(
                compiled_stage_program(timing, i),
                timing, i, int(replicas[i]),
                full_round=program.full_round,
            )
            for i in range(len(timing.stages))
        ])

    def service_times_ns(
        self,
        model: Any,  # repro.serving.cost.ServingCostModel
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Serving batch costs under per-lane ceil occupancy.

        Same per-stage constants as the analytic law, but the dispatched
        streams are dealt to discrete lanes — an inference batch whose
        size does not divide the replica count pays for its ragged last
        round, which the analytic division amortises away.
        """
        sizes_f = np.asarray(sizes, dtype=np.float64)
        edges_f = np.asarray(edges, dtype=np.float64)
        out = np.empty((model.num_stages, sizes_f.size))
        for s in range(model.num_stages):
            replicas = float(model.replicas[s])
            if model.is_edge_stage[s]:
                effective = np.minimum(
                    replicas * model.intrinsic_edge_parallelism,
                    np.maximum(1.0, edges_f),
                )
                out[s] = (
                    np.ceil(edges_f / effective) * model.mvm_latency_ns
                    + np.ceil(sizes_f / effective)
                    * model.stage_factor[s] * model.read_latency_ns
                )
            else:
                effective = np.maximum(
                    1.0, np.minimum(replicas, sizes_f),
                )
                out[s] = (
                    np.ceil(sizes_f / effective)
                    * model.stage_factor[s] * model.mvm_latency_ns
                )
        return np.rint(out).astype(np.int64)

    def epoch_stats(self, program: EpochProgram) -> Dict[str, Any]:
        timing = program.timing
        per_stage = {}
        totals: Dict[str, float] = {}
        for i, stage in enumerate(timing.stages):
            # A copy: callers own their stats, the cached totals stay put.
            stats = dict(_program_entry(timing, i)[1])
            per_stage[stage.name] = stats
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["stages"] = per_stage
        return totals


TRACE_BACKEND = register_backend(TraceBackend())
