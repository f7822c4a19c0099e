"""Trace replay against its record-by-record oracle, byte for byte.

:func:`repro.backends.trace.replay_stage_times` sums a stage program in
one ``bincount`` and adds the reload bin after the write mix; the loop
in ``tests/oracles/trace.py`` adds record by record.  They agree only
while a compiled program holds at most one record per (opcode,
micro-batch), so that invariant is checked here too, on every program
the accel-trace experiments compile.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import trace
from repro.runtime import RunSpec, Session
from repro.stages.latency import StageTimingModel, TimingParams
from tests.oracles.trace import replay_stage_times_reference

TRACE_IDS = sorted(json.loads((
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "expected_digests.json"
).read_text())["trace"])
REPLICAS = (1, 2, 3, 7, 64, 10 ** 6)
PHASES = (None, True, False)
#: A fractional reload penalty and several intrinsic lanes: every record
#: kind, and lanes that divide no work evenly.
PENALISED = TimingParams(reload_penalty=0.37, intrinsic_edge_parallelism=4)


@pytest.fixture(scope="module")
def programs():
    """``(timing, stage index)`` of every program the trace experiments
    compile, plus the same workloads and plans under ``PENALISED``."""
    from repro.experiments.registry import run_all

    seen = {}
    compiled = trace.compiled_stage_program

    def recorded(timing, stage_index):
        key = trace.program_cache_key(timing, stage_index)
        seen.setdefault(key, (timing, stage_index))
        return compiled(timing, stage_index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "compiled_stage_program", recorded)
        run_all(
            only=TRACE_IDS, quick=True,
            session=Session(RunSpec(backend="trace")),
        )
    timings = {
        timing.content_fingerprint(): timing for timing, _ in seen.values()
    }
    penalised = [
        StageTimingModel(
            timing.workload, timing.config, params=PENALISED,
            update_plan=timing.update_plan,
        )
        for timing in timings.values()
    ]
    return list(seen.values()) + [
        (timing, index)
        for timing in penalised
        for index in range(len(timing.stages))
    ]


def test_the_sweep_compiles_every_record_kind(programs):
    opcodes = set()
    for timing, index in programs:
        opcodes.update(trace.compile_stage_program(timing, index)["opcode"])
    assert opcodes == set(trace.OPCODE_NAMES)


def test_one_record_per_opcode_and_microbatch(programs):
    for timing, index in programs:
        records = trace.compile_stage_program(timing, index)
        pairs = (
            records["opcode"].astype(np.int64)
            * timing.workload.num_microbatches + records["mb"]
        )
        assert np.unique(pairs).size == pairs.size


def test_replay_is_byte_identical_to_the_oracle(programs):
    for timing, index in programs:
        records = trace.compile_stage_program(timing, index)
        for replicas in REPLICAS:
            for full_round in PHASES:
                fast = trace.replay_stage_times(
                    records, timing, index, replicas, full_round=full_round,
                )
                slow = replay_stage_times_reference(
                    records, timing, index, replicas, full_round=full_round,
                )
                assert fast.dtype == slow.dtype
                assert fast.tobytes() == slow.tobytes(), (
                    timing.workload.name, index, replicas, full_round,
                )
