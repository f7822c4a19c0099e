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
from repro.runtime import RunSpec, Session

HALF = Session(RunSpec(scale=0.5))


def test_motivation_profile_rows():
    with HALF.use():
        result = abl_motivation.run(datasets=("collab",))
    row = result.rows[0]
    assert row["AG:CO ratio (max layer)"] >= row["AG:CO ratio (min layer)"]
    assert 0.0 < row["update share of AG"] < 1.0
    assert row["update share (replicated)"] > row["update share of AG"]
    assert row["AG1 microbatch skew"] > 1.0


def test_motivation_profile_is_priced_on_the_session_hardware():
    # Slower row writes must raise the update share of AG time: the
    # profile is priced on the session's config, not the default one.
    def row(spec):
        with Session(spec).use():
            return abl_motivation.run(datasets=("collab",)).rows[0]

    default = row(RunSpec(scale=0.5))
    slow_writes = row(
        RunSpec(scale=0.5, hardware={"write_latency_ns": 200.0}),
    )
    assert slow_writes["update share of AG"] > default["update share of AG"]
    assert (
        slow_writes["update share (replicated)"]
        > default["update share (replicated)"]
    )
    assert (
        slow_writes["AG:CO ratio (max layer)"]
        != default["AG:CO ratio (max layer)"]
    )


def test_endurance_rows_per_scheme():
    with HALF.use():
        result = abl_endurance.run(datasets=("cora",))
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


def test_predictor_samples_are_priced_on_the_session_hardware():
    # Slower row writes lengthen the stages that rewrite crossbars, so
    # the predictor's training targets, the held-out truth abl-samples
    # scores against, and a session's fitted predictor must all move
    # under the override: they are priced on the session's config, not
    # the default one.
    import numpy as np

    from repro.predictor.dataset import generate_dataset

    default = Session(RunSpec())
    slow = Session(RunSpec(hardware={"write_latency_ns": 200.0}))

    def targets(session):
        with session.use():
            return generate_dataset(num_samples=200, random_state=0).targets

    def quick_rows(session):
        with session.use():
            return abl_samples.run(sample_counts=(100, 400)).rows

    assert not np.array_equal(targets(slow), targets(default))
    assert quick_rows(slow) != quick_rows(default)
    # Session.predictor fits under its own session even when called
    # outside any ``use()`` block.
    workload = HALF.workload("cora")
    assert (
        slow.predictor(num_samples=200).predict_stage_times(workload)
        != default.predictor(num_samples=200).predict_stage_times(workload)
    )


def test_variation_mvm_error_is_measured_on_the_session_crossbars():
    # 128-row crossbars tile the 128x32 test matrix in one row tile
    # instead of two, so the noisy MVM's error moves with the session's
    # hardware, while the default session's value stays unchanged.
    from repro.experiments.abl_device_variation import mvm_relative_error

    def error(spec):
        with Session(spec).use():
            return mvm_relative_error(0.05)

    default = error(RunSpec())
    assert default == pytest.approx(0.0332435, abs=1e-7)
    assert error(RunSpec(hardware={"crossbar_rows": 128})) == pytest.approx(
        0.0291881, abs=1e-7,
    )


def test_quantization_validation():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        abl_quantization.run(num_vertices=4)


def test_weight_staleness_validation():
    from repro.errors import TrainingError

    with pytest.raises(TrainingError):
        abl_weight_staleness.run(delays=(0, -1))


def test_scheduler_experiment_rows():
    with HALF.use():
        result = abl_scheduler.run(datasets=("cora", "ddi"))
    policies = {r["policy"] for r in result.rows}
    assert policies == {"equal-split", "greedy-split"}
    completions = [
        r for r in result.rows if r["job"] == "(completion)"
    ]
    assert len(completions) == 2


def test_model_family_sage_workload_dims():
    from repro.runtime import current_session

    base = current_session().workload("cora", seed=0)
    sage = abl_model_family.sage_workload(base)
    assert sage.layer_dims == [
        (2 * a, b) for a, b in base.layer_dims
    ]
    assert sage.graph is base.graph
