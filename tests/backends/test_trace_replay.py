"""Epoch replay against its record-by-record oracle, byte for byte.

:func:`repro.backends.trace.replay_stage_times` prices a compiled epoch
in one ``bincount`` over (opcode class x stage x micro-batch) bins and
adds the reload bin after the write mix; the loop in
``tests/oracles/trace.py`` adds one stage's records one by one.  Every
row of an epoch replay must equal the oracle on that stage's records.
They agree only while a compiled epoch holds at most one record per
(stage, opcode, micro-batch), in (stage, opcode block, micro-batch)
order, so that layout is checked here too, on every epoch the
accel-trace experiments compile.
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
    """The timing model of every epoch the trace experiments compile,
    plus the same workloads and plans under ``PENALISED``."""
    from repro.experiments.registry import run_all

    seen = {}
    entry = trace._program_entry

    def recorded(timing):
        seen.setdefault(trace.program_cache_key(timing), timing)
        return entry(timing)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_program_entry", recorded)
        run_all(
            only=TRACE_IDS, quick=True,
            session=Session(RunSpec(backend="trace")),
        )
    timings = {
        timing.content_fingerprint(): timing for timing in seen.values()
    }
    penalised = [
        StageTimingModel(
            timing.workload, timing.config, params=PENALISED,
            update_plan=timing.update_plan,
        )
        for timing in timings.values()
    ]
    return list(seen.values()) + penalised


def test_the_sweep_compiles_every_record_kind(programs):
    opcodes = set()
    for timing in programs:
        opcodes.update(trace.compile_epoch_program(timing)["opcode"])
    assert opcodes == set(trace.OPCODE_NAMES)


def test_one_record_per_opcode_and_microbatch(programs):
    # Blocks of one record per micro-batch, in micro-batch order, one
    # block per (stage, opcode), stages in chain order.
    for timing in programs:
        records = trace.compile_epoch_program(timing)
        num_mbs = timing.workload.num_microbatches
        assert records.size % num_mbs == 0
        blocks = records.reshape(-1, num_mbs)
        assert np.all(blocks["mb"] == np.arange(num_mbs))
        for column in ("stage", "opcode"):
            assert np.all(blocks[column] == blocks[column][:, :1])
        stages = blocks["stage"][:, 0].astype(np.int64)
        assert np.all(np.diff(stages) >= 0)
        assert set(stages.tolist()) == set(range(len(timing.stages)))
        pairs = stages * 256 + blocks["opcode"][:, 0]
        assert np.unique(pairs).size == pairs.size


def mixed_vectors(num_stages):
    """Per-stage replica vectors that give every stage every count."""
    return [
        np.array([
            REPLICAS[(stage + shift) % len(REPLICAS)]
            for stage in range(num_stages)
        ])
        for shift in range(len(REPLICAS))
    ]


def test_replay_is_byte_identical_to_the_oracle(programs):
    for timing in programs:
        records = trace.compile_epoch_program(timing)
        num_stages = len(timing.stages)
        for full_round in PHASES:
            oracle = {
                (index, replicas): replay_stage_times_reference(
                    records[records["stage"] == index], timing, index,
                    replicas, full_round=full_round,
                )
                for index in range(num_stages)
                for replicas in REPLICAS
            }
            vectors = [
                np.full(num_stages, replicas) for replicas in REPLICAS
            ] + mixed_vectors(num_stages)
            for vector in vectors:
                fast = trace.replay_stage_times(
                    records, timing, vector, full_round=full_round,
                )
                assert fast.dtype == np.float64
                assert fast.shape == (
                    num_stages, timing.workload.num_microbatches,
                )
                for index, row in enumerate(fast):
                    slow = oracle[index, int(vector[index])]
                    assert row.tobytes() == slow.tobytes(), (
                        timing.workload.name, index, vector, full_round,
                    )
