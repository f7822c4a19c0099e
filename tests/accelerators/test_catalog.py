"""Catalog semantics: each baseline's distinguishing behaviour."""

from repro.accelerators.base import AcceleratorModel
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
from repro.allocation.baselines import uniform_allocation
from repro.graphs.sparsify import sparsify_by_degree
from repro.mapping.selective import adaptive_theta
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


def test_slimgnn_prunes_at_the_theta_it_is_given(small_workload, small_config):
    # theta = 0.0 keeps no important vertex, hence no edge; only None
    # asks for the adaptive theta.
    def pruning(theta):
        return AcceleratorModel(
            name="SlimGNN-like",
            schedule=ScheduleMode.INTRA_BATCH,
            allocator=uniform_allocation,
            prune_graph=True,
            theta=theta,
        )

    assert pruning(None) == slimgnn_like()
    graph = small_workload.graph
    adaptive = adaptive_theta(graph)
    timing = pruning(0.0).build_timing_model(small_workload, small_config)
    assert timing.workload.graph.num_edges == 0
    assert timing.workload.graph is sparsify_by_degree(graph, 0.0)
    times = {
        theta: pruning(theta).run(small_workload, small_config).total_time_ns
        for theta in (None, adaptive, 0.0)
    }
    assert times[None] == times[adaptive]
    assert times[0.0] != times[None]


def test_gopim_reserves_more_crossbars_than_serial(small_workload, small_config):
    base = serial().run(small_workload, small_config)
    rep = gopim().run(small_workload, small_config)
    assert rep.crossbars_reserved > base.crossbars_reserved
