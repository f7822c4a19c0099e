"""Profiling baseline and the evaluation harness."""

import pytest

from repro.errors import PredictorError
from repro.predictor.dataset import generate_dataset
from repro.predictor.evaluate import (
    compare_models,
    leave_one_dataset_out,
    prediction_accuracy,
    sweep_mlp_depth,
    sweep_mlp_width,
)
from repro.hardware.config import DEFAULT_CONFIG
from repro.predictor.profiler import profile_stage_times
from repro.stages.latency import StageTimingModel


def test_profile_returns_exact_times(small_workload):
    timing = StageTimingModel(small_workload, DEFAULT_CONFIG)
    result = profile_stage_times(timing)
    truth = timing.no_replica_times()
    for name, value in result.stage_times_ns.items():
        assert value == pytest.approx(truth[name])
    # Overhead equals the profiled serial epoch time.
    expected = sum(truth.values()) * small_workload.num_microbatches
    assert result.overhead_ns == pytest.approx(expected)


def test_profile_epochs_scale_overhead(small_workload):
    timing = StageTimingModel(small_workload, DEFAULT_CONFIG)
    one = profile_stage_times(timing, epochs=1)
    three = profile_stage_times(timing, epochs=3)
    assert three.overhead_ns == pytest.approx(3 * one.overhead_ns)
    with pytest.raises(PredictorError):
        profile_stage_times(timing, epochs=0)


def test_prediction_accuracy_metric():
    assert prediction_accuracy(100.0, 100.0) == 1.0
    assert prediction_accuracy(100.0, 90.0) == pytest.approx(0.9)
    assert prediction_accuracy(100.0, 300.0) == 0.0  # floored
    with pytest.raises(PredictorError):
        prediction_accuracy(0.0, 1.0)


@pytest.fixture(scope="module")
def shared_dataset():
    return generate_dataset(num_samples=600, random_state=2)


def test_compare_models_returns_all(shared_dataset):
    results = compare_models(dataset=shared_dataset)
    assert {"MLP", "XGB", "SVR", "DT", "LR", "BR"} <= set(results)
    assert all(r >= 0 for r in results.values())


def test_mlp_among_best_models(shared_dataset):
    results = compare_models(dataset=shared_dataset)
    ranked = sorted(results, key=results.get)
    assert "MLP" in ranked[:3]  # paper: MLP wins


def test_depth_sweep(shared_dataset):
    results = sweep_mlp_depth(depths=(2, 3), dataset=shared_dataset)
    assert set(results) == {2, 3}
    # A hidden layer beats the purely linear depth-2 model.
    assert results[3] <= results[2]
    with pytest.raises(PredictorError):
        sweep_mlp_depth(depths=(1,), dataset=shared_dataset)


def test_width_sweep(shared_dataset):
    results = sweep_mlp_width(widths=(16, 64), dataset=shared_dataset)
    assert set(results) == {16, 64}


def test_leave_one_dataset_out_accuracy():
    result = leave_one_dataset_out("cora", train_samples=400, random_state=0)
    assert result.dataset == "cora"
    assert 0.5 < result.accuracy <= 1.0  # paper: 93.4% average
    assert len(result.per_stage_accuracy) == 12  # 3-layer model, 4L stages
