"""Unit-level checks for the remaining ablation experiments."""

import pytest

from repro.experiments import (
    abl_endurance,
    abl_model_family,
    abl_motivation,
    abl_quantization,
    abl_samples,
    abl_scheduler,
    abl_weight_staleness,
)


def test_motivation_profile_rows():
    result = abl_motivation.run(datasets=("collab",), scale=0.5)
    row = result.rows[0]
    assert row["AG:CO ratio (max layer)"] >= row["AG:CO ratio (min layer)"]
    assert 0.0 < row["update share of AG"] < 1.0
    assert row["update share (replicated)"] > row["update share of AG"]
    assert row["AG1 microbatch skew"] > 1.0


def test_endurance_rows_per_scheme():
    result = abl_endurance.run(datasets=("cora",), scale=0.5)
    schemes = [r["scheme"] for r in result.rows]
    assert schemes == ["full", "OSU", "ISU", "ISU+leveling"]
    # Cora is sparse -> theta 0.8 -> fewer spared rows than dense, but
    # still some.
    by = {r["scheme"]: r for r in result.rows}
    assert by["ISU"]["mean writes/epoch"] < by["full"]["mean writes/epoch"]


def test_samples_sweep_columns():
    result = abl_samples.run(sample_counts=(100, 300))
    assert result.column("training samples") == [100, 300]
    for row in result.rows:
        assert row["held-out RMSE"] > 0
        assert 0.0 <= row["unseen (cora) accuracy"] <= 1.0


def test_quantization_validation():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        abl_quantization.run(num_vertices=4)


def test_weight_staleness_validation():
    from repro.errors import TrainingError

    with pytest.raises(TrainingError):
        abl_weight_staleness.run(delays=(0, -1))


def test_scheduler_experiment_rows():
    result = abl_scheduler.run(
        datasets=("cora", "ddi"), scale=0.5, use_predictor=False,
    )
    policies = {r["policy"] for r in result.rows}
    assert policies == {"equal-split", "greedy-split"}
    completions = [
        r for r in result.rows if r["job"] == "(completion)"
    ]
    assert len(completions) == 2


def test_model_family_sage_workload_dims():
    from repro.runtime import default_session

    base = default_session().workload("cora", seed=0)
    sage = abl_model_family.sage_workload(base)
    assert sage.layer_dims == [
        (2 * a, b) for a, b in base.layer_dims
    ]
    assert sage.graph is base.graph
