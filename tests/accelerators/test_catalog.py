"""Catalog semantics: each baseline's distinguishing behaviour."""

import numpy as np
import pytest

from repro.accelerators.catalog import (
    gopim,
    gopim_vanilla,
    naive_pipeline,
    plus_isu,
    plus_pp,
    reflip,
    regraphx,
    serial,
    slimgnn_like,
)
from repro.pipeline.simulator import ScheduleMode


def test_names_and_schedules():
    assert serial().schedule is ScheduleMode.SERIAL
    assert slimgnn_like().schedule is ScheduleMode.INTRA_BATCH
    assert regraphx().schedule is ScheduleMode.INTRA_BATCH
    assert reflip().schedule is ScheduleMode.INTRA_BATCH
    assert gopim().schedule is ScheduleMode.INTRA_INTER
    assert gopim_vanilla().schedule is ScheduleMode.INTRA_INTER


def test_update_strategies():
    assert gopim().update_strategy == "isu"
    assert gopim_vanilla().update_strategy == "full"
    assert plus_isu().update_strategy == "isu"
    assert plus_pp().update_strategy == "full"
    assert naive_pipeline().update_strategy == "full"


def test_reflip_quirks():
    params = reflip().timing_params
    assert params.reload_penalty > 0
    assert params.intrinsic_edge_parallelism > 1
    assert serial().timing_params.reload_penalty == 0


def test_slimgnn_prunes():
    assert slimgnn_like().prune_graph
    assert not regraphx().prune_graph


def test_full_ranking_on_workload(small_workload, small_config):
    reports = {}
    for factory in (serial, slimgnn_like, regraphx, reflip,
                    gopim_vanilla, gopim):
        acc = factory()
        reports[acc.name] = acc.run(small_workload, small_config)
    times = {n: r.total_time_ns for n, r in reports.items()}
    # The paper's ordering: GoPIM fastest; Serial slowest; Vanilla beats
    # the fixed-policy baselines; everything beats Serial.
    assert times["GoPIM"] == min(times.values())
    assert times["Serial"] == max(times.values())
    assert times["GoPIM"] < times["GoPIM-Vanilla"]
    assert times["GoPIM-Vanilla"] <= times["ReGraphX"] * 1.001
    assert times["ReFlip"] < times["Serial"]


def test_slimgnn_reduces_ag_work(small_workload, small_config):
    pruned_timing = slimgnn_like().build_timing_model(
        small_workload, small_config,
    )
    assert (
        pruned_timing.workload.graph.num_edges
        < small_workload.graph.num_edges
    )


def test_gopim_reserves_more_crossbars_than_serial(small_workload, small_config):
    base = serial().run(small_workload, small_config)
    rep = gopim().run(small_workload, small_config)
    assert rep.crossbars_reserved > base.crossbars_reserved
