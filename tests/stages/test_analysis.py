"""Stage-profiling analysis (Section III motivation quantities)."""

import pytest

from repro.hardware.config import DEFAULT_CONFIG
from repro.stages.analysis import (
    aggregation_combination_ratios,
    profile_stages,
    update_time_share,
)
from repro.stages.latency import StageTimingModel


@pytest.fixture
def timing(small_workload):
    return StageTimingModel(small_workload, DEFAULT_CONFIG)


def test_profiles_cover_all_stages(timing, small_workload):
    profiles = profile_stages(timing)
    assert [p.name for p in profiles] == [
        s.name for s in small_workload.stage_chain()
    ]
    for p in profiles:
        assert p.min_ns <= p.mean_ns <= p.max_ns
        assert p.compute_share + p.write_share == pytest.approx(1.0)
        assert p.skew >= 1.0


def test_ag_dominates_in_ratios(timing):
    ratios = aggregation_combination_ratios(timing)
    assert set(ratios) == {1, 2}
    assert all(r > 1.0 for r in ratios.values())


def test_update_share_in_range(timing):
    share = update_time_share(timing)
    assert 0.0 < share < 1.0


def test_write_share_zero_for_gc(timing):
    profiles = {p.name: p for p in profile_stages(timing)}
    assert profiles["GC1"].write_share == 0.0
    assert profiles["AG1"].write_share > 0.0
