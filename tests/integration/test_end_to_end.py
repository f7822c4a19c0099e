"""Cross-module integration: the full GoPIM flow on real(istic) workloads."""

import numpy as np
import pytest

from repro import GoPIMSystem, workload_from_dataset
from repro.accelerators.catalog import gopim, serial
from repro.graphs.datasets import load_dataset
from repro.hardware.crossbar import Crossbar
from repro.mapping.tiling import plan_tiling
from repro.pipeline.simulator import ScheduleMode, simulate_pipeline
from repro.predictor.dataset import generate_dataset
from repro.predictor.predictor import PerKindRegressor, TimePredictor
from repro.predictor.regressors import LinearRegressor
from repro.runtime import current_session
from repro.stages.latency import StageTimingModel


def experiment_config():
    return current_session().config


@pytest.fixture(scope="module")
def predictor():
    ds = generate_dataset(num_samples=400, random_state=0)
    return TimePredictor(PerKindRegressor(LinearRegressor)).fit(ds)


def test_full_gopim_flow_on_cora():
    system = GoPIMSystem()
    workload = workload_from_dataset("cora", random_state=0)

    plan = system.plan(workload)
    assert plan.theta == 0.8  # Cora is sparse
    report = system.simulate(workload)
    base = serial().run(workload)
    assert base.total_time_ns / report.total_time_ns > 10.0
    assert base.energy_pj / report.energy_pj > 1.0


def test_timing_model_agrees_with_pipeline_sim():
    # Eq. (6) with heterogeneous per-micro-batch times equals the
    # event-driven simulation the accelerators run.
    workload = workload_from_dataset("cora", random_state=0)
    timing = StageTimingModel(workload, experiment_config())
    times = timing.stage_time_matrix()
    result = simulate_pipeline(times, ScheduleMode.INTRA_INTER)
    # Sanity: uniformised closed form brackets the heterogeneous makespan.
    uniform_upper = times.max(axis=1).sum() + (
        (workload.num_microbatches - 1) * times.max()
    )
    assert result.total_time_ns <= uniform_upper + 1e-6


def test_crossbar_functional_mvm_matches_gcn_combination():
    # Program a weight matrix on tiled crossbars and check the MVM result
    # matches numpy for the Combination stage's math.
    rng = np.random.default_rng(0)
    d_in, d_out = 100, 40
    weights = rng.normal(size=(d_in, d_out)).astype(np.float32)
    plan = plan_tiling(d_in, d_out)
    crossbars = [
        [Crossbar() for _ in range(plan.col_tiles)]
        for _ in range(plan.row_tiles)
    ]
    for r in range(plan.row_tiles):
        for c in range(plan.col_tiles):
            block = weights[
                r * 64:(r + 1) * 64,
                c * 32:(c + 1) * 32,
            ]
            crossbars[r][c].program(block)
    x = rng.normal(size=d_in).astype(np.float32)
    out = np.zeros(d_out, dtype=np.float32)
    for r in range(plan.row_tiles):
        seg = x[r * 64:(r + 1) * 64]
        for c in range(plan.col_tiles):
            width = min(32, d_out - c * 32)
            out[c * 32:c * 32 + width] += crossbars[r][c].mvm(seg)[:width]
    np.testing.assert_allclose(out, x @ weights, rtol=1e-3, atol=1e-3)


def test_gopim_trains_with_acceptable_accuracy():
    system = GoPIMSystem()
    graph = load_dataset("arxiv", random_state=0, scale=0.5)
    full = system.train(graph, task="node", epochs=12)
    assert full.best_test_metric > 0.5


def test_report_replicas_match_allocation(predictor):
    config = experiment_config()
    workload = workload_from_dataset("cora", random_state=0)
    report = gopim(time_predictor=predictor).run(workload, config)
    np.testing.assert_array_equal(
        report.replicas, report.allocation.replicas,
    )
    cost = (
        report.replicas * report.allocation.problem.crossbars_per_replica
    ).sum()
    assert report.crossbars_reserved == cost
    assert cost <= config.total_crossbars
