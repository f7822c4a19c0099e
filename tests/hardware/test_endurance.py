"""Endurance / lifetime model."""

import pytest

from repro.errors import ConfigError
from repro.hardware.endurance import (
    RERAM_ENDURANCE_WRITES,
    SRAM_ENDURANCE_WRITES,
    compare_schemes,
    estimate_lifetime,
    rows_written_per_epoch,
)
from repro.mapping.selective import build_update_plan


def test_endurance_constants_match_paper():
    # Section IV-A: SRAM 10^16 writes vs ReRAM 10^8.
    assert RERAM_ENDURANCE_WRITES == 10 ** 8
    assert SRAM_ENDURANCE_WRITES == 10 ** 16


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


def test_validation(small_graph):
    plan = build_update_plan(small_graph, "full")
    with pytest.raises(ConfigError):
        estimate_lifetime(plan, "x", endurance_writes=0)
    with pytest.raises(ConfigError):
        estimate_lifetime(plan, "x", pulses_per_write=0)
    with pytest.raises(ConfigError):
        estimate_lifetime(plan, "x", layers_sharing_row=0)


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
    from repro.hardware.endurance import wear_levelled_rates

    plan = build_update_plan(small_graph, "isu", theta=0.3)
    frequent = wear_levelled_rates(plan, rotation_period_epochs=2)
    rare = wear_levelled_rates(plan, rotation_period_epochs=200)
    # Rotating more often costs more background writes.
    assert frequent.mean() > rare.mean()
    with pytest.raises(ConfigError):
        wear_levelled_rates(plan, rotation_period_epochs=0)
