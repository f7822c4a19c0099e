"""Analytic latency model: serialisation structure, replicas, writes."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.hardware.config import DEFAULT_CONFIG
from repro.mapping.selective import build_update_plan
from repro.stages.latency import StageTimingModel, TimingParams
from tests.oracles.stages import (
    microbatch_edges,
    microbatch_size,
    stage_activity_reference,
)


@pytest.fixture
def timing(small_workload):
    return StageTimingModel(small_workload, DEFAULT_CONFIG)


def _stage(timing, name):
    return next(s for s in timing.stages if s.name == name)


def test_co_time_formula(timing, small_workload):
    cfg = DEFAULT_CONFIG
    co1 = _stage(timing, "CO1")
    b = small_workload.microbatch_sizes()[0]
    row_tiles = -(-co1.input_dim // cfg.crossbar_rows)
    expected = (
        b * row_tiles * cfg.mvm_latency_ns
        + timing.write_times_ns(co1)[0]
    )
    assert timing.microbatch_times_ns(co1, 1)[0] == pytest.approx(expected)


def test_ag_time_edge_proportional(timing, small_workload):
    cfg = DEFAULT_CONFIG
    ag1 = _stage(timing, "AG1")
    times = timing.compute_times_ns(ag1, 1)
    edges = small_workload.microbatch_edge_counts()
    # Dominant term is edges x mvm latency.
    assert times[0] >= edges[0] * cfg.mvm_latency_ns
    # Different micro-batches with different degree sums cost differently.
    order_t = np.argsort(times[:-1])  # last mb may be ragged
    order_e = np.argsort(edges[:-1])
    np.testing.assert_array_equal(order_t, order_e)


def test_ag_dominates_co(timing):
    # The paper's headline observation: AG stage times dwarf CO's.
    co = timing.mean_stage_time_ns(_stage(timing, "CO1"))
    ag = timing.mean_stage_time_ns(_stage(timing, "AG1"))
    assert ag > 3 * co


def test_replicas_divide_compute(timing):
    ag1 = _stage(timing, "AG1")
    t1 = timing.compute_times_ns(ag1, 1)[0]
    t4 = timing.compute_times_ns(ag1, 4)[0]
    assert t4 == pytest.approx(t1 / 4)


def test_replica_cap_row_stages(timing, small_workload):
    co1 = _stage(timing, "CO1")
    b = small_workload.micro_batch
    capped = timing.compute_times_ns(co1, b)
    beyond = timing.compute_times_ns(co1, 10 * b)
    np.testing.assert_array_equal(capped, beyond)
    assert timing.max_useful_replicas(co1) == b


def test_replica_cap_edge_stages(timing, small_workload):
    ag1 = _stage(timing, "AG1")
    cap = timing.max_useful_replicas(ag1)
    assert cap == int(small_workload.average_microbatch_edges())
    assert cap > small_workload.micro_batch  # Table VI's AG >> CO replicas


def test_writes_not_reduced_by_replicas(timing):
    ag1 = _stage(timing, "AG1")
    np.testing.assert_allclose(
        timing.write_times_ns(ag1),
        timing.microbatch_times_ns(ag1, 10 ** 9)
        - timing.compute_times_ns(ag1, 10 ** 9),
    )


def test_isu_reduces_write_time(small_workload):
    full = StageTimingModel(small_workload, DEFAULT_CONFIG)
    isu_plan = build_update_plan(small_workload.graph, "isu", theta=0.5)
    isu = StageTimingModel(
        small_workload, DEFAULT_CONFIG, update_plan=isu_plan,
    )
    ag1_full = _stage(full, "AG1")
    ag1_isu = _stage(isu, "AG1")
    total_full = full.write_times_ns(ag1_full).sum()
    total_isu = isu.write_times_ns(ag1_isu).sum()
    assert total_isu < 0.6 * total_full


def test_gc_and_lc_write_free(timing):
    assert not timing.write_times_ns(_stage(timing, "GC1")).any()
    assert not timing.write_times_ns(_stage(timing, "LC1")).any()


def test_reload_penalty_only_for_edge_stages(small_workload):
    reflip = StageTimingModel(
        small_workload, DEFAULT_CONFIG,
        params=TimingParams(reload_penalty=1.0),
    )
    ag1 = _stage(reflip, "AG1")
    co1 = _stage(reflip, "CO1")
    edges = small_workload.microbatch_edge_counts()
    np.testing.assert_allclose(
        reflip.reload_times_ns(ag1),
        edges * DEFAULT_CONFIG.row_write_latency_ns,
    )
    assert not reflip.reload_times_ns(co1).any()


def test_intrinsic_edge_parallelism(small_workload):
    plain = StageTimingModel(small_workload, DEFAULT_CONFIG)
    fast = StageTimingModel(
        small_workload, DEFAULT_CONFIG,
        params=TimingParams(intrinsic_edge_parallelism=8),
    )
    ag1 = _stage(plain, "AG1")
    np.testing.assert_allclose(
        fast.compute_times_ns(ag1, 1), plain.compute_times_ns(ag1, 1) / 8,
    )


def test_crossbars_per_replica(timing):
    # CO1 maps 16x32 values -> 1 row tile x 1 col tile.
    assert timing.crossbars_per_replica(_stage(timing, "CO1")) == 1
    # AG1 maps 200x32 -> 4 row tiles x 1 col tile.
    assert timing.crossbars_per_replica(_stage(timing, "AG1")) == 4


def test_no_replica_times_keys(timing):
    # Every stage has a positive mean time without replication (the
    # predictor's target).
    times = {s.name: timing.mean_stage_time_ns(s, 1) for s in timing.stages}
    assert len(times) == len(timing.stages)
    assert all(t > 0 for t in times.values())


def test_activity_counts(timing, small_workload):
    ag1 = _stage(timing, "AG1")
    act = stage_activity_reference(timing, ag1, 0)
    assert act.mvm_row_streams == microbatch_edges(small_workload, 0)
    assert act.rows_written > 0
    assert act.buffer_bytes > 0
    co1 = _stage(timing, "CO1")
    act_co = stage_activity_reference(timing, co1, 0)
    assert act_co.mvm_row_streams == microbatch_size(small_workload, 0) * 1


def test_invalid_replicas(timing):
    with pytest.raises(PipelineError):
        timing.compute_times_ns(_stage(timing, "CO1"), 0)


def test_timing_params_validation():
    with pytest.raises(PipelineError):
        TimingParams(scan_group_tiles=0)
    with pytest.raises(PipelineError):
        TimingParams(write_pulses=0)
    with pytest.raises(PipelineError):
        TimingParams(reload_penalty=-1.0)
    with pytest.raises(PipelineError):
        TimingParams(intrinsic_edge_parallelism=0)
