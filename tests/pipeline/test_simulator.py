"""Pipeline simulator: Eq. 3-6 semantics, schedules, idle accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PipelineError
from repro.pipeline.simulator import ScheduleMode, simulate_pipeline
from tests.oracles.pipeline import analytic_makespan_ns


def test_serial_makespan_is_sum():
    times = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = simulate_pipeline(times, ScheduleMode.SERIAL)
    assert result.total_time_ns == pytest.approx(10.0)
    # Nothing overlaps: busy time equals makespan.
    assert result.stage_busy_ns.sum() == pytest.approx(10.0)


def test_pipelined_uniform_matches_eq6():
    stage_times = [2.0, 5.0, 1.0]
    num_mbs = 7
    times = np.tile(np.array(stage_times)[:, None], (1, num_mbs))
    result = simulate_pipeline(times, ScheduleMode.INTRA_INTER)
    assert result.total_time_ns == pytest.approx(
        analytic_makespan_ns(stage_times, num_mbs),
    )


@given(
    stage_times=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=6),
    num_mbs=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_eq6_property(stage_times, num_mbs):
    times = np.tile(np.array(stage_times)[:, None], (1, num_mbs))
    result = simulate_pipeline(times, ScheduleMode.INTRA_INTER)
    assert result.total_time_ns == pytest.approx(
        sum(stage_times) + (num_mbs - 1) * max(stage_times), rel=1e-9,
    )


@given(
    times=st.lists(
        st.lists(st.floats(0.0, 20.0), min_size=2, max_size=8),
        min_size=1, max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
)
@settings(max_examples=50, deadline=None)
def test_schedule_constraints_hold(times):
    matrix = np.array(times)
    result = simulate_pipeline(matrix, ScheduleMode.INTRA_INTER)
    starts, ends = result.starts, result.ends
    stages, mbs = matrix.shape
    for i in range(stages):
        for j in range(mbs):
            assert ends[i, j] == pytest.approx(starts[i, j] + matrix[i, j])
            if i > 0:  # Eq. (4)
                assert starts[i, j] >= ends[i - 1, j] - 1e-9
            if j > 0:  # Eq. (3)
                assert starts[i, j] >= ends[i, j - 1] - 1e-9


def test_ordering_serial_ge_intra_batch_ge_full():
    rng = np.random.default_rng(0)
    times = rng.uniform(0.5, 5.0, size=(4, 12))
    serial = simulate_pipeline(times, ScheduleMode.SERIAL).total_time_ns
    intra = simulate_pipeline(
        times, ScheduleMode.INTRA_BATCH, microbatches_per_batch=3,
    ).total_time_ns
    full = simulate_pipeline(times, ScheduleMode.INTRA_INTER).total_time_ns
    assert serial >= intra >= full


def test_intra_batch_drains():
    # Two stages of 1 and 6 units, batches of 2: the Fig. 5 case (a)
    # yields exactly 13 units per batch.
    times = np.tile([[1.0], [6.0]], (1, 8))
    result = simulate_pipeline(
        times, ScheduleMode.INTRA_BATCH, microbatches_per_batch=2,
    )
    assert result.total_time_ns == pytest.approx(52.0)


def test_idle_fractions():
    times = np.array([[1.0, 1.0], [4.0, 4.0]])
    result = simulate_pipeline(times, ScheduleMode.INTRA_INTER)
    # Stage 1 is busy 2 of 9 units.
    assert result.total_time_ns == pytest.approx(9.0)
    assert result.idle_fraction(0) == pytest.approx(1 - 2 / 9)
    assert result.idle_fraction(1) == pytest.approx(1 - 8 / 9)
    assert result.idle_fractions().shape == (2,)


def test_single_microbatch_no_pipeline_benefit():
    times = np.array([[3.0], [4.0]])
    for mode in (ScheduleMode.SERIAL, ScheduleMode.INTRA_INTER):
        assert simulate_pipeline(times, mode).total_time_ns == pytest.approx(7.0)


def test_validation():
    with pytest.raises(PipelineError):
        simulate_pipeline(np.zeros((0, 2)))
    with pytest.raises(PipelineError):
        simulate_pipeline(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(PipelineError):
        simulate_pipeline(np.array([[-1.0]]))
    with pytest.raises(PipelineError):
        simulate_pipeline(
            np.ones((2, 2)), ScheduleMode.INTRA_BATCH,
            microbatches_per_batch=0,
        )
    with pytest.raises(PipelineError):
        analytic_makespan_ns([], 3)
    with pytest.raises(PipelineError):
        analytic_makespan_ns([1.0], 0)


def test_heterogeneous_times_bottleneck():
    # One slow micro-batch in the middle delays everything after it.
    times = np.ones((2, 5))
    times[1, 2] = 10.0
    result = simulate_pipeline(times, ScheduleMode.INTRA_INTER)
    assert result.total_time_ns == pytest.approx(1 + 2 * 1 + 10.0 + 2 * 1)


def test_stage_busy_is_summed_once_and_shared_read_only():
    times = np.array([[1.0, 2.0, 3.0], [4.0, 0.5, 0.25]])
    result = simulate_pipeline(times, mode=ScheduleMode.SERIAL)
    busy = result.stage_busy_ns
    assert result.stage_busy_ns is busy
    np.testing.assert_array_equal(busy, times.sum(axis=1))
    with pytest.raises(ValueError):
        busy[0] = 0.0
    # The vector form equals the per-stage one, bit for bit.
    assert result.idle_fractions().tolist() == [
        result.idle_fraction(i) for i in range(result.num_stages)
    ]
