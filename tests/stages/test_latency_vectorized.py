"""Whole-epoch timing vectors vs the per-micro-batch oracles.

``StageTimingModel`` prices a stage's epoch with vector methods
(``compute_times_ns`` / ``write_times_ns`` / ``reload_times_ns`` /
``microbatch_times_ns`` / ``stage_time_matrix`` /
``stage_activity_totals``); the scalar per-(stage, micro-batch)
functions in ``tests/oracles/stages.py`` and the profiling loop in
``tests/oracles/predictor.py`` are the reference semantics.  Latencies
must agree bit for bit: the experiments read the vector forms, and a
last-bit drift would move their digests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import dc_sbm_graph
from repro.hardware.config import DEFAULT_CONFIG
from repro.mapping.selective import build_update_plan
from repro.predictor.profiler import profile_stage_times
from repro.stages.latency import StageTimingModel, TimingParams
from repro.stages.workload import Workload
from tests.oracles.predictor import profile_stage_times_reference
from tests.oracles.stages import (
    compute_time_reference,
    microbatch_time_reference,
    reload_time_reference,
    stage_activity_reference,
    write_time_reference,
)


def _timing_model(strategy: str, reload_penalty: float = 0.0,
                  micro_batch: int = 24,
                  edge_parallelism: int = 1) -> StageTimingModel:
    graph = dc_sbm_graph(
        num_vertices=100, num_communities=3, avg_degree=7.0,
        random_state=4, name="latvec",
    )
    # 100 vertices / micro_batch 24 leaves a partial last micro-batch.
    workload = Workload(
        graph=graph, layer_dims=[(16, 32), (32, 8)],
        micro_batch=micro_batch,
    )
    plan = build_update_plan(graph, strategy=strategy)
    params = TimingParams(
        reload_penalty=reload_penalty,
        intrinsic_edge_parallelism=edge_parallelism,
    )
    return StageTimingModel(
        workload, DEFAULT_CONFIG, params=params, update_plan=plan,
    )


def _assert_vectors_match_oracle(timing, replicas):
    num_mbs = timing.workload.num_microbatches
    for stage in timing.stages:
        pairs = (
            (timing.compute_times_ns(stage, replicas),
             [compute_time_reference(timing, stage, mb, replicas)
              for mb in range(num_mbs)]),
            (timing.write_times_ns(stage),
             [write_time_reference(timing, stage, mb)
              for mb in range(num_mbs)]),
            (timing.reload_times_ns(stage),
             [reload_time_reference(timing, stage, mb)
              for mb in range(num_mbs)]),
            (timing.microbatch_times_ns(stage, replicas),
             [microbatch_time_reference(timing, stage, mb, replicas)
              for mb in range(num_mbs)]),
        )
        for vector, oracle in pairs:
            assert np.array_equal(vector, np.array(oracle)), stage.name


@pytest.mark.parametrize("strategy", ["full", "osu", "isu"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_vector_times_match_scalar(strategy, replicas):
    _assert_vectors_match_oracle(
        _timing_model(strategy, reload_penalty=0.3), replicas,
    )


@pytest.mark.parametrize("replicas", [1, 3, 1000])
def test_vector_times_match_scalar_with_edge_parallelism(replicas):
    # ReFlip-style intrinsic edge parallelism: the edge-stage lanes are
    # replicas x 8, capped at each micro-batch's edge count (1000
    # replicas saturates the cap everywhere).
    _assert_vectors_match_oracle(
        _timing_model("isu", reload_penalty=1.0, edge_parallelism=8),
        replicas,
    )


@pytest.mark.parametrize("strategy", ["full", "isu"])
def test_stage_time_matrix_matches_scalar_grid(strategy):
    timing = _timing_model(strategy)
    stages = timing.stages
    replicas = np.arange(1, len(stages) + 1)
    matrix = timing.stage_time_matrix(replicas)
    assert matrix.shape == (len(stages), timing.workload.num_microbatches)
    for i, stage in enumerate(stages):
        assert np.array_equal(matrix[i], [
            microbatch_time_reference(timing, stage, mb, int(replicas[i]))
            for mb in range(timing.workload.num_microbatches)
        ])
    # replicas=None means one replica everywhere.
    np.testing.assert_array_equal(
        timing.stage_time_matrix(), timing.stage_time_matrix(
            np.ones(len(stages), dtype=np.int64),
        ),
    )


@pytest.mark.parametrize("strategy", ["full", "osu", "isu"])
def test_activity_totals_match_scalar_sum(strategy):
    timing = _timing_model(strategy)
    num_mbs = timing.workload.num_microbatches
    for stage in timing.stages:
        total = timing.stage_activity_totals(stage)
        acts = [
            stage_activity_reference(timing, stage, mb)
            for mb in range(num_mbs)
        ]
        assert total.mvm_row_streams == sum(a.mvm_row_streams for a in acts)
        assert total.rows_written == sum(a.rows_written for a in acts)
        assert total.buffer_bytes == pytest.approx(
            sum(a.buffer_bytes for a in acts), rel=1e-12,
        )
        assert total.offchip_bytes == pytest.approx(
            sum(a.offchip_bytes for a in acts), rel=1e-12,
        )


def test_profiler_matches_reference():
    timing = _timing_model("isu", reload_penalty=0.2)
    fast = profile_stage_times(timing, epochs=3)
    slow = profile_stage_times_reference(timing, epochs=3)
    assert fast.stage_times_ns.keys() == slow.stage_times_ns.keys()
    for name, value in slow.stage_times_ns.items():
        assert fast.stage_times_ns[name] == pytest.approx(value, rel=1e-12)
    assert fast.overhead_ns == pytest.approx(slow.overhead_ns, rel=1e-12)
