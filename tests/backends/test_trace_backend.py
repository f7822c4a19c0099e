"""Trace backend: compile determinism, cache round-trip, conservation.

The compiled instruction stream is a pure function of the lowering
inputs (deterministic, RNG-silent, cacheable) and must *conserve* the
workload's operation counts: the trace can redistribute work over lanes
but never invent or drop activations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import EpochProgram, get_backend
from repro.backends.trace import (
    OP_MVM,
    OP_RELOAD,
    OP_SCAN,
    OP_WRITE_FULL,
    OP_WRITE_PARTIAL,
    TRACE_DTYPE,
    compile_stage_program,
    compiled_stage_program,
    program_cache_key,
    program_stats,
    replay_stage_times,
)
from repro.perf.cache import ArtifactCache
from repro.stages.latency import StageTimingModel
from repro.stages.stage import StageKind

TRACE = get_backend("trace")


@pytest.fixture
def timing(small_workload, small_config) -> StageTimingModel:
    return StageTimingModel(small_workload, small_config)


def test_compile_is_deterministic(timing):
    for index in range(len(timing.stages)):
        first = compile_stage_program(timing, index)
        second = compile_stage_program(timing, index)
        assert first.dtype == TRACE_DTYPE
        assert first.tobytes() == second.tobytes()


def test_cache_key_distinguishes_stages_not_replicas(timing):
    keys = {
        program_cache_key(timing, i) for i in range(len(timing.stages))
    }
    assert len(keys) == len(timing.stages)
    # No replica term anywhere: the key is the same whatever allocation
    # later replays the program (checked structurally — the key inputs
    # are lowering inputs only).
    assert program_cache_key(timing, 0) == program_cache_key(timing, 0)


def test_program_round_trips_through_disk_cache(timing, tmp_path):
    program = compile_stage_program(timing, 0)
    key = program_cache_key(timing, 0)
    writer = ArtifactCache(disk_dir=str(tmp_path))
    writer.get_or_compute("trace_programs", key, lambda: program)
    reader = ArtifactCache(disk_dir=str(tmp_path))
    loaded = reader.get_or_compute(
        "trace_programs", key,
        lambda: pytest.fail("disk tier missed: recompiled"),
    )
    assert loaded.dtype == TRACE_DTYPE
    assert loaded.tobytes() == program.tobytes()


def test_memoised_compile_hits_in_memory_cache(timing):
    from repro.perf.cache import get_cache

    first = compiled_stage_program(timing, 1)
    before = get_cache().stats.memory_hits
    second = compiled_stage_program(timing, 1)
    assert get_cache().stats.memory_hits == before + 1
    assert second.tobytes() == first.tobytes()


def test_compile_and_replay_touch_no_rng(timing):
    state = np.random.get_state()
    for index in range(len(timing.stages)):
        records = compile_stage_program(timing, index)
        replay_stage_times(records, timing, index, replicas=3)
    TRACE.simulate_epoch(EpochProgram(timing=timing))
    after = np.random.get_state()
    assert state[0] == after[0]
    np.testing.assert_array_equal(state[1], after[1])
    assert state[2:] == after[2:]


def test_mvm_totals_conserve_stage_activity(timing):
    # The stream may slice work into tiles, but total MVM row streams
    # must equal what the activity (energy) accounting charges.
    for index, stage in enumerate(timing.stages):
        stats = program_stats(compile_stage_program(timing, index))
        activity = timing.stage_activity_totals(stage)
        assert stats["mvm_activations"] == activity.mvm_row_streams


def test_scan_reads_conserve_vertex_count(timing):
    sizes = timing.workload.microbatch_sizes()
    for index, stage in enumerate(timing.stages):
        stats = program_stats(compile_stage_program(timing, index))
        if stage.kind.is_edge_proportional:
            assert stats["scan_reads"] % int(sizes.sum()) == 0
            assert stats["scan_reads"] >= sizes.sum()
        else:
            assert stats["scan_reads"] == 0


def test_write_records_only_on_update_stages(timing):
    for index, stage in enumerate(timing.stages):
        records = compile_stage_program(timing, index)
        writes = records[
            (records["opcode"] == OP_WRITE_PARTIAL)
            | (records["opcode"] == OP_WRITE_FULL)
        ]
        has_writes = stage.kind in (
            StageKind.AGGREGATION, StageKind.COMBINATION,
        )
        assert bool(writes.size) == has_writes
        assert np.all(writes["dep"] == 1)


def test_epoch_stats_aggregate_per_stage(timing):
    epoch = TRACE.simulate_epoch(EpochProgram(timing=timing))
    stats = epoch.stats
    per_stage = stats["stages"]
    assert set(per_stage) == {stage.name for stage in timing.stages}
    for key in ("instructions", "mvm_activations", "scan_reads"):
        assert stats[key] == pytest.approx(
            sum(entry[key] for entry in per_stage.values())
        )
    assert stats["instructions"] > 0
    assert stats["mvm_activations"] > 0
    # The totals come from the memoised entry: equal to a fresh count,
    # and a caller editing its copy leaves the next epoch's intact.
    for index, stage in enumerate(timing.stages):
        assert per_stage[stage.name] == program_stats(
            compile_stage_program(timing, index),
        )
        per_stage[stage.name]["instructions"] = -1
    again = TRACE.simulate_epoch(EpochProgram(timing=timing)).stats
    assert again["instructions"] == stats["instructions"]


def test_replay_monotone_in_lanes(timing):
    # More replicas can only shrink (or keep) each micro-batch latency.
    records = compile_stage_program(timing, 0)
    previous = replay_stage_times(records, timing, 0, replicas=1)
    for replicas in (2, 4, 8):
        current = replay_stage_times(records, timing, 0, replicas=replicas)
        assert np.all(current <= previous)
        previous = current


def test_pinned_phases_bracket_the_expected_mix(timing):
    replicas = np.full(len(timing.stages), 2, dtype=np.int64)
    mix = TRACE.stage_time_matrix(
        EpochProgram(timing=timing, replicas=replicas)
    )
    partial = TRACE.stage_time_matrix(EpochProgram(
        timing=timing, replicas=replicas, full_round=False,
    ))
    full = TRACE.stage_time_matrix(EpochProgram(
        timing=timing, replicas=replicas, full_round=True,
    ))
    lo = np.minimum(partial, full)
    hi = np.maximum(partial, full)
    assert np.all(mix >= lo - 1e-9)
    assert np.all(mix <= hi + 1e-9)


def test_reload_records_only_with_penalty(small_workload, small_config):
    from repro.stages.latency import TimingParams

    plain = StageTimingModel(small_workload, small_config)
    penalised = StageTimingModel(
        small_workload, small_config,
        params=TimingParams(reload_penalty=0.5),
    )
    for index, stage in enumerate(plain.stages):
        none = compile_stage_program(plain, index)
        some = compile_stage_program(penalised, index)
        assert not np.any(none["opcode"] == OP_RELOAD)
        if stage.kind.is_edge_proportional:
            assert np.any(some["opcode"] == OP_RELOAD)
            assert program_cache_key(penalised, index) != \
                program_cache_key(plain, index)
