"""The analytic backend is a boundary move: byte-identity to the old code.

Every analytic-backend method must reproduce the pre-refactor
implementation bit for bit — the ``*_reference`` functions in
``tests/oracles/`` are the oracles.  If one of these tests breaks, the
refactor changed results, not just structure, and the stored golden
hashes are invalid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators.catalog import gopim
from repro.backends import EpochProgram, get_backend
from repro.pipeline.simulator import ScheduleMode
from repro.predictor.profiler import profile_stage_times
from repro.stages.latency import StageTimingModel
from tests.oracles.cosim import epoch_times_reference
from tests.oracles.predictor import profile_stage_times_reference
from tests.oracles.serving import batch_times_ns_reference

ANALYTIC = get_backend("analytic")


@pytest.fixture
def timing(small_workload, small_config) -> StageTimingModel:
    return StageTimingModel(small_workload, small_config)


def test_expected_mix_matrix_is_timing_models(timing):
    np.testing.assert_array_equal(
        ANALYTIC.stage_time_matrix(EpochProgram(timing=timing)),
        timing.stage_time_matrix(None),
    )


def test_expected_mix_matrix_with_replica_vector(timing):
    replicas = np.arange(1, len(timing.stages) + 1, dtype=np.int64)
    np.testing.assert_array_equal(
        ANALYTIC.stage_time_matrix(
            EpochProgram(timing=timing, replicas=replicas)
        ),
        timing.stage_time_matrix(replicas),
    )


@pytest.mark.parametrize("full_round", [True, False])
def test_pinned_phase_matrix_matches_cosim_reference(timing, full_round):
    replicas = np.full(len(timing.stages), 3, dtype=np.int64)
    np.testing.assert_array_equal(
        ANALYTIC.stage_time_matrix(EpochProgram(
            timing=timing, replicas=replicas, full_round=full_round,
        )),
        epoch_times_reference(timing, replicas, full_round),
    )


def test_service_times_match_serving_reference(serving_system):
    sizes = np.array([1, 8, 64, 256, 1000], dtype=np.int64)
    edges = np.array([5, 50, 400, 1500, 6000], dtype=np.int64)
    np.testing.assert_array_equal(
        ANALYTIC.service_times_ns(serving_system, sizes, edges),
        batch_times_ns_reference(serving_system, sizes, edges),
    )


def test_ambient_batch_times_default_to_analytic(serving_system):
    sizes = np.array([16, 128], dtype=np.int64)
    edges = np.array([100, 800], dtype=np.int64)
    np.testing.assert_array_equal(
        serving_system.batch_times_ns(sizes, edges),
        batch_times_ns_reference(serving_system, sizes, edges),
    )


def test_profiler_matches_scalar_reference(timing):
    fast = profile_stage_times(timing)
    slow = profile_stage_times_reference(timing)
    assert fast.stage_times_ns.keys() == slow.stage_times_ns.keys()
    for name in fast.stage_times_ns:
        assert fast.stage_times_ns[name] == pytest.approx(
            slow.stage_times_ns[name], rel=1e-12,
        )
    assert fast.overhead_ns == pytest.approx(slow.overhead_ns, rel=1e-12)


def test_default_run_is_the_analytic_run(small_workload, small_config):
    default = gopim().run(small_workload, small_config)
    explicit = gopim().run(small_workload, small_config, backend="analytic")
    assert default.backend == "analytic"
    assert default.total_time_ns == explicit.total_time_ns
    assert default.energy_pj == explicit.energy_pj
    np.testing.assert_array_equal(default.replicas, explicit.replicas)


def test_epoch_stats_are_closed_form_marker(timing):
    epoch = ANALYTIC.simulate_epoch(EpochProgram(timing=timing))
    assert epoch.stats == {"model": "closed-form"}


def test_schedule_modes_flow_through(timing):
    from repro.pipeline.simulator import simulate_pipeline

    for mode in (ScheduleMode.SERIAL, ScheduleMode.INTRA_INTER):
        epoch = ANALYTIC.simulate_epoch(
            EpochProgram(timing=timing, schedule=mode)
        )
        direct = simulate_pipeline(timing.stage_time_matrix(None), mode=mode)
        assert epoch.total_time_ns == direct.total_time_ns
