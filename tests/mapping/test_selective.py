"""Selective updating: OSU vs ISU write cycles, adaptive theta, schedules,
and the update-plan memo on the graph."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.errors import MappingError
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import (
    DENSE_THETA,
    SPARSE_THETA,
    UpdatePlan,
    adaptive_theta,
    build_update_plan,
)
from repro.runtime import RunSpec, Session
from tests.oracles.cache_key import cache_key_reference


def test_adaptive_theta_matches_paper(small_graph, tiny_graph):
    # small_graph avg degree ~10 (dense); tiny avg 2 (sparse).
    assert adaptive_theta(small_graph) == DENSE_THETA
    assert adaptive_theta(tiny_graph) == SPARSE_THETA


def test_full_plan_updates_everyone(small_graph):
    plan = build_update_plan(small_graph, "full")
    assert plan.theta == 1.0
    assert plan.num_important == small_graph.num_vertices
    np.testing.assert_array_equal(
        plan.vertices_updated_at(3), np.arange(small_graph.num_vertices),
    )


def test_selective_schedule(small_graph):
    plan = build_update_plan(small_graph, "isu", theta=0.25, minor_period=10)
    assert plan.num_important == round(0.25 * small_graph.num_vertices)
    assert plan.is_update_epoch_for_minor(0)
    assert not plan.is_update_epoch_for_minor(1)
    assert plan.is_update_epoch_for_minor(10)
    assert plan.vertices_updated_at(0).size == small_graph.num_vertices
    assert plan.vertices_updated_at(5).size == plan.num_important


def test_important_are_top_degree(small_graph):
    plan = build_update_plan(small_graph, "isu", theta=0.2)
    threshold = np.sort(small_graph.degrees)[::-1][plan.num_important - 1]
    assert small_graph.degrees[plan.important].min() >= threshold


def test_isu_reduces_write_cycles_osu_does_not():
    # The Fig. 7 mechanism at dataset scale: high-degree vertices crowd
    # low-index crossbars, so OSU's busiest crossbar stays full while
    # ISU's shrinks by ~theta.
    graph = load_dataset("ddi", random_state=0)
    full = build_update_plan(graph, "full")
    osu = build_update_plan(graph, "osu", theta=0.5)
    isu = build_update_plan(graph, "isu", theta=0.5)
    full_cycles = full.average_write_cycles()
    assert osu.average_write_cycles() > 0.9 * full_cycles
    assert isu.average_write_cycles() < 0.7 * full_cycles


def test_write_cycles_at_full_round(small_graph):
    plan = build_update_plan(small_graph, "isu", theta=0.5)
    full_round = plan.write_cycles_at(0)
    partial = plan.write_cycles_at(1)
    assert partial <= full_round


def test_rows_written_per_epoch(small_graph):
    n = small_graph.num_vertices
    plan = build_update_plan(small_graph, "isu", theta=0.5, minor_period=20)
    k = plan.num_important
    expected = (n + 19 * k) / 20
    assert plan.rows_written_per_epoch() == pytest.approx(expected)


def test_build_plan_validation(small_graph):
    with pytest.raises(MappingError):
        build_update_plan(small_graph, "bogus")
    with pytest.raises(MappingError):
        build_update_plan(small_graph, "isu", theta=2.0)
    with pytest.raises(MappingError):
        build_update_plan(small_graph, "isu", minor_period=0)


def test_full_strategy_overrides_selective(small_graph):
    plan = build_update_plan(small_graph, "full", theta=0.1)
    assert plan.theta == 1.0


def test_plan_mapping_consistency(small_graph):
    isu = build_update_plan(small_graph, "isu")
    assert isu.mapping.strategy == "interleaved"
    osu = build_update_plan(small_graph, "osu")
    assert osu.mapping.strategy == "index"


# ----------------------------------------------------------------------
# The memo on the graph
# ----------------------------------------------------------------------
def _assert_same_plan(plan, other):
    mapping, expected = plan.mapping, other.mapping
    assert mapping.crossbar_of.tobytes() == expected.crossbar_of.tobytes()
    assert mapping.wordline_of.tobytes() == expected.wordline_of.tobytes()
    assert mapping.num_crossbars == expected.num_crossbars
    assert mapping.rows_per_crossbar == expected.rows_per_crossbar
    assert mapping.strategy == expected.strategy
    assert plan.important.tobytes() == other.important.tobytes()
    assert plan.theta == other.theta
    assert plan.minor_period == other.minor_period


def test_equal_arguments_return_the_same_plan(small_graph):
    plan = build_update_plan(small_graph, "isu")
    assert build_update_plan(small_graph, "ISU") is plan
    # The key holds resolved values: the session's rows, the adaptive theta.
    assert build_update_plan(small_graph, "isu", rows_per_crossbar=64) is plan
    theta = adaptive_theta(small_graph)
    assert build_update_plan(small_graph, "isu", theta=theta) is plan


@pytest.mark.parametrize("kwargs", [
    {"strategy": "osu"},
    {"strategy": "full"},
    {"theta": 0.3},
    {"rows_per_crossbar": 32},
    {"minor_period": 5},
    {"selective": False},
])
def test_every_argument_reaches_the_memo_key(small_graph, kwargs):
    kwargs = {"strategy": "isu", **kwargs}
    plan = build_update_plan(small_graph, **kwargs)
    assert plan is not build_update_plan(small_graph, "isu")
    # A pickled graph carries no memo, so this build is uncached.
    fresh = pickle.loads(pickle.dumps(small_graph))
    _assert_same_plan(plan, build_update_plan(fresh, **kwargs))


def test_rows_default_to_the_session_crossbars(small_graph):
    with Session(RunSpec(hardware={"crossbar_rows": 128})).use():
        plan = build_update_plan(small_graph, "isu")
    assert plan.mapping.rows_per_crossbar == 128
    assert plan is build_update_plan(small_graph, "isu", rows_per_crossbar=128)
    assert plan is not build_update_plan(small_graph, "isu")


@pytest.mark.parametrize("strategy", ["isu", "osu", "full"])
def test_plan_arrays_are_read_only(small_graph, strategy):
    plan = build_update_plan(small_graph, strategy)
    for array in (
        plan.mapping.crossbar_of, plan.mapping.wordline_of, plan.important,
    ):
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize("strategy", ["isu", "osu", "full"])
def test_fingerprint_matches_the_memo_free_encoder(small_graph, strategy):
    plan = build_update_plan(small_graph, strategy, minor_period=7)
    assert plan.content_fingerprint() == cache_key_reference(
        plan.mapping.crossbar_of, plan.important, float(plan.theta),
        plan.minor_period,
    )


def test_the_memo_keeps_no_reference_cycle():
    # A plan that pointed back at its graph would keep every dead graph
    # alive until a full collection.
    graph = dc_sbm_graph(
        num_vertices=300, num_communities=3, avg_degree=6.0,
        random_state=11,
    )
    alive = weakref.ref(graph)
    gc.disable()
    try:
        build_update_plan(graph, "isu")
        del graph
        assert alive() is None
    finally:
        gc.enable()
