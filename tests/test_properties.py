"""Cross-cutting property-based invariants (hypothesis).

These complement the per-module suites with system-level invariants:
monotonicity laws the models must obey regardless of parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.greedy import greedy_allocation
from repro.allocation.problem import AllocationProblem
from repro.graphs.generators import dc_sbm_graph
from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.energy import EnergyBreakdown
from repro.mapping.selective import build_update_plan
from repro.pipeline.simulator import ScheduleMode, simulate_pipeline
from repro.stages.latency import StageTimingModel
from repro.stages.workload import Workload


# ----------------------------------------------------------------------
# Pipeline monotonicity: increasing any stage time never shrinks the
# makespan, under any schedule.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 1000),
    mode=st.sampled_from(list(ScheduleMode)),
)
@settings(max_examples=40, deadline=None)
def test_pipeline_monotone_in_stage_times(seed, mode):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 5.0, size=(3, 6))
    base = simulate_pipeline(times, mode).total_time_ns
    bumped = times.copy()
    i = rng.integers(0, 3)
    j = rng.integers(0, 6)
    bumped[i, j] += rng.uniform(0.1, 3.0)
    assert simulate_pipeline(bumped, mode).total_time_ns >= base - 1e-9


# ----------------------------------------------------------------------
# Allocator monotonicity: a larger budget never yields a worse makespan.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 500),
    budget=st.integers(0, 60),
    extra=st.integers(1, 60),
)
@settings(max_examples=40, deadline=None)
def test_greedy_monotone_in_budget(seed, budget, extra):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    problem_small = AllocationProblem(
        stage_names=[f"S{i}" for i in range(n)],
        times_ns=rng.uniform(1.0, 50.0, size=n),
        crossbars_per_replica=rng.integers(1, 5, size=n),
        budget=budget,
        replica_caps=rng.integers(2, 16, size=n),
        num_microbatches=int(rng.integers(1, 8)),
    )
    problem_big = AllocationProblem(
        stage_names=problem_small.stage_names,
        times_ns=problem_small.times_ns,
        crossbars_per_replica=problem_small.crossbars_per_replica,
        budget=budget + extra,
        replica_caps=problem_small.replica_caps,
        num_microbatches=problem_small.num_microbatches,
    )
    small = greedy_allocation(problem_small).makespan_ns
    big = greedy_allocation(problem_big).makespan_ns
    assert big <= small + 1e-9


# ----------------------------------------------------------------------
# Latency model: compute time is non-increasing in the replica count.
# ----------------------------------------------------------------------
@given(replicas=st.integers(1, 200), more=st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_compute_time_monotone_in_replicas(replicas, more):
    graph = dc_sbm_graph(96, 2, 6.0, random_state=0, feature_dim=8)
    workload = Workload(graph, [(8, 8)], micro_batch=16)
    timing = StageTimingModel(workload, DEFAULT_CONFIG)
    for stage in timing.stages:
        t1 = timing.compute_times_ns(stage, replicas)
        t2 = timing.compute_times_ns(stage, replicas + more)
        assert np.all(t2 <= t1 + 1e-9)


# ----------------------------------------------------------------------
# Selective updating: write cycles are non-decreasing in theta, and the
# rows written per epoch scale with theta.
# ----------------------------------------------------------------------
@given(
    theta_low=st.floats(0.05, 0.5),
    delta=st.floats(0.05, 0.5),
)
@settings(max_examples=25, deadline=None)
def test_isu_write_cycles_monotone_in_theta(theta_low, delta):
    graph = dc_sbm_graph(256, 2, 8.0, random_state=1)
    low = build_update_plan(graph, "isu", theta=theta_low)
    high = build_update_plan(graph, "isu", theta=min(1.0, theta_low + delta))
    assert high.average_write_cycles() >= low.average_write_cycles() - 1e-9
    assert high.rows_written_per_epoch() >= low.rows_written_per_epoch() - 1e-9


# ----------------------------------------------------------------------
# Energy breakdown algebra: merge is associative and total is additive.
# ----------------------------------------------------------------------
@given(
    values=st.lists(
        st.tuples(*[st.floats(0, 1e6) for _ in range(7)]),
        min_size=1, max_size=5,
    ),
)
@settings(max_examples=40, deadline=None)
def test_energy_merge_additive(values):
    def make(v):
        return EnergyBreakdown(*v)

    total = EnergyBreakdown()
    for v in values:
        total.merge(make(v))
    expected = sum(sum(v) for v in values)
    assert total.total_pj == pytest.approx(expected, rel=1e-9)


# ----------------------------------------------------------------------
# Workload partition: micro-batch edges always sum to the arc count,
# for any micro-batch size.
# ----------------------------------------------------------------------
@given(micro_batch=st.integers(1, 300), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_microbatch_edge_partition(micro_batch, seed):
    graph = dc_sbm_graph(120, 2, 5.0, random_state=seed)
    workload = Workload(graph, [(4, 4)], micro_batch=micro_batch)
    edges = workload.microbatch_edge_counts()
    assert edges.size == workload.num_microbatches
    assert (edges >= 0).all()
    assert edges.sum() == graph.num_arcs
