"""Endurance / lifetime model."""

import pytest

from repro.hardware.config import WRITE_PULSES
from repro.hardware.endurance import (
    RERAM_ENDURANCE_WRITES,
    compare_schemes,
    estimate_lifetime,
    rows_written_per_epoch,
)
from repro.mapping.selective import build_update_plan
from repro.stages.latency import TimingParams


def test_endurance_constants_match_paper():
    # Section IV-A: ReRAM cells survive 10^8 writes.
    assert RERAM_ENDURANCE_WRITES == 10 ** 8
    # Wear and the timing model price a row write at the same pulses.
    assert TimingParams().write_pulses == WRITE_PULSES == 2


def test_rates_follow_schedule(small_graph):
    plan = build_update_plan(small_graph, "isu", theta=0.25, minor_period=10)
    rates = rows_written_per_epoch(plan)
    assert rates.shape == (small_graph.num_vertices,)
    assert rates.max() == 1.0
    assert rates.min() == pytest.approx(0.1)
    assert (rates == 1.0).sum() == plan.num_important


def test_full_update_uniform_wear(small_graph):
    plan = build_update_plan(small_graph, "full")
    report = estimate_lifetime(plan, "full")
    assert report.writes_per_epoch_worst_row == report.writes_per_epoch_median_row
    assert report.epochs_to_wearout_worst == pytest.approx(
        RERAM_ENDURANCE_WRITES / report.writes_per_epoch_worst_row,
    )
    # Every row is written every epoch, at WRITE_PULSES pulses a write.
    assert report.writes_per_epoch_worst_row == WRITE_PULSES


def test_isu_extends_median_not_worst(small_graph):
    full = estimate_lifetime(build_update_plan(small_graph, "full"), "full")
    isu = estimate_lifetime(
        build_update_plan(small_graph, "isu", theta=0.3), "isu",
    )
    # Hubs wear identically; the median row lasts much longer under ISU.
    assert isu.epochs_to_wearout_worst == full.epochs_to_wearout_worst
    assert isu.epochs_to_wearout_median > 5 * full.epochs_to_wearout_median
    assert isu.writes_per_epoch_mean < full.writes_per_epoch_mean


def test_compare_schemes(small_graph):
    reports = compare_schemes({
        "full": build_update_plan(small_graph, "full"),
        "isu": build_update_plan(small_graph, "isu"),
    })
    assert set(reports) == {"full", "isu"}
    assert reports["isu"].scheme == "isu"


def test_wear_leveling_extends_worst_row(small_graph):
    from repro.hardware.endurance import (
        estimate_lifetime_with_leveling,
        wear_levelled_rates,
    )

    plan = build_update_plan(small_graph, "isu", theta=0.3)
    static = estimate_lifetime(plan, "isu")
    levelled = estimate_lifetime_with_leveling(plan, "isu")
    # Interleaved mapping mixes hot and cold rows per crossbar, so the
    # levelled worst rate sits below the static hub rate.
    assert levelled.epochs_to_wearout_worst > static.epochs_to_wearout_worst
    assert levelled.scheme == "isu+leveling"
    rates = wear_levelled_rates(plan)
    assert rates.shape == (small_graph.num_vertices,)


def test_wear_leveling_rotation_cost(small_graph):
    from repro.hardware.endurance import (
        ROTATION_PERIOD_EPOCHS,
        wear_levelled_rates,
    )

    plan = build_update_plan(small_graph, "isu", theta=0.3)
    levelled = wear_levelled_rates(plan)
    # Each rotation costs every row one background write per period.
    assert levelled.mean() == pytest.approx(
        rows_written_per_epoch(plan).mean() + 1.0 / ROTATION_PERIOD_EPOCHS,
    )
