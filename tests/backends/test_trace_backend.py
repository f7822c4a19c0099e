"""Trace backend: compile determinism, cache round-trip, conservation.

The compiled instruction stream is a pure function of the lowering
inputs (deterministic, RNG-silent, cacheable) and must *conserve* the
workload's operation counts: the trace can redistribute work over lanes
but never invent or drop activations.  A warm accelerator run looks its
compiled epoch up once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.accelerators.catalog import gopim
from repro.backends import EpochProgram, SimulationBackend, get_backend
from repro.backends.trace import (
    CACHE_NAMESPACE,
    OP_MVM,
    OP_RELOAD,
    OP_SCAN,
    OP_WRITE_FULL,
    OP_WRITE_PARTIAL,
    TRACE_DTYPE,
    compile_epoch_program,
    compile_stage_program,
    compiled_epoch_program,
    program_cache_key,
    program_stats,
    replay_stage_times,
)
from repro.perf.cache import ArtifactCache
from repro.runtime import RunSpec, Session
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


def test_cache_key_is_one_per_epoch_not_per_replica(timing):
    # One key per timing model; the stage column tells stages apart.
    records = compile_epoch_program(timing)
    assert set(records["stage"].tolist()) == set(range(len(timing.stages)))
    for index in range(len(timing.stages)):
        assert records[records["stage"] == index].tobytes() == (
            compile_stage_program(timing, index).tobytes()
        )
    # No replica term anywhere: the key is the same whatever allocation
    # later replays the program (checked structurally — the key inputs
    # are lowering inputs only).
    again = StageTimingModel(
        timing.workload, timing.config, update_plan=timing.update_plan,
    )
    assert program_cache_key(again) == program_cache_key(timing)


def test_program_round_trips_through_disk_cache(timing, tmp_path):
    program = compile_epoch_program(timing)
    key = program_cache_key(timing)
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

    first = compiled_epoch_program(timing)
    before = get_cache().stats.memory_hits
    second = compiled_epoch_program(timing)
    assert get_cache().stats.memory_hits == before + 1
    assert second.tobytes() == first.tobytes()


def test_compile_and_replay_touch_no_rng(timing):
    state = np.random.get_state()
    replay_stage_times(
        compile_epoch_program(timing), timing,
        np.full(len(timing.stages), 3),
    )
    TRACE.simulate_epoch(EpochProgram(timing=timing)).stats
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
    records = compile_epoch_program(timing)
    stages = len(timing.stages)
    previous = replay_stage_times(records, timing, np.ones(stages))
    for replicas in (2, 4, 8):
        current = replay_stage_times(
            records, timing, np.full(stages, replicas),
        )
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
    assert program_cache_key(penalised) != program_cache_key(plain)


class LookupCountingCache(ArtifactCache):
    """An isolated cache that counts lookups per namespace."""

    def __init__(self):
        super().__init__()
        self.lookups = Counter()

    def get_or_compute(self, namespace, key, compute):
        self.lookups[namespace] += 1
        return super().get_or_compute(namespace, key, compute)

    def get(self, namespace, key, default=None):
        self.lookups[namespace] += 1
        return super().get(namespace, key, default)


def test_a_warm_run_looks_its_tables_and_epoch_up_once(
    small_workload, small_config, monkeypatch,
):
    cache = LookupCountingCache()
    epochs = []
    simulate = SimulationBackend.simulate_epoch

    def recorded(self, program):
        epochs.append(simulate(self, program))
        return epochs[-1]

    monkeypatch.setattr(SimulationBackend, "simulate_epoch", recorded)
    with Session(RunSpec(backend="trace"), cache=cache).use():
        gopim().run(small_workload, small_config)
        cache.lookups.clear()
        gopim().run(small_workload, small_config)
        warm = dict(cache.lookups)
        assert warm["timing-tables"] == 1
        assert warm[CACHE_NAMESPACE] == 1

        # The stats come from the entry the run already fetched, as the
        # caller's own copy.
        stats = epochs[-1].stats
        assert dict(cache.lookups) == warm
        assert epochs[-1].stats is stats
        stats["instructions"] = -1
        for entry in stats["stages"].values():
            entry["instructions"] = -1
        gopim().run(small_workload, small_config)
        again = epochs[-1].stats
        timing = gopim().build_timing_model(small_workload, small_config)
    assert again["instructions"] == compile_epoch_program(timing).size
    for index, stage in enumerate(timing.stages):
        assert again["stages"][stage.name] == program_stats(
            compile_stage_program(timing, index),
        )
