"""Table I feature extraction."""

import numpy as np
import pytest

from repro.errors import PredictorError
from repro.hardware.config import DEFAULT_CONFIG
from repro.predictor.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    STAGE_KIND_CODES,
    stage_features,
    stage_features_with_kind,
    stage_samples,
)
from repro.stages.latency import StageTimingModel
from repro.stages.stage import StageKind, StageSpec


def test_ten_features_as_in_table_i():
    assert NUM_FEATURES == 10
    assert "sparsity" in FEATURE_NAMES and "layer" in FEATURE_NAMES


def test_stage_features_shape_and_layer(small_workload):
    for stage in small_workload.stage_chain():
        vec = stage_features(small_workload, stage)
        assert vec.shape == (NUM_FEATURES,)
        assert vec[9] == stage.layer
        assert vec[8] <= 0.0  # log10 of (1 - sparsity) <= 0


def test_kind_code_appended(small_workload):
    stage = small_workload.stage_chain()[1]  # AG1
    vec = stage_features_with_kind(small_workload, stage)
    assert vec.shape == (NUM_FEATURES + 1,)
    assert vec[-1] == STAGE_KIND_CODES[StageKind.AGGREGATION]


def test_all_kinds_have_codes():
    assert set(STAGE_KIND_CODES) == set(StageKind)
    assert len(set(STAGE_KIND_CODES.values())) == 4


def test_stage_samples_targets_are_log_times(small_workload):
    timing = StageTimingModel(small_workload, DEFAULT_CONFIG)
    features, targets, names = stage_samples(timing)
    assert features.shape == (8, NUM_FEATURES + 1)
    for name, log_t in zip(names, targets):
        stage = next(s for s in timing.stages if s.name == name)
        true = timing.mean_stage_time_ns(stage, 1)
        assert 10 ** log_t == pytest.approx(true, rel=1e-6)


def test_features_scale_with_dims(small_workload):
    chain = small_workload.stage_chain()
    ag1 = chain[1]
    co1 = chain[0]
    ag_vec = stage_features(small_workload, ag1)
    co_vec = stage_features(small_workload, co1)
    # AG's mapped-rows feature (index 6) reflects N >> d_in.
    assert ag_vec[6] > co_vec[2]


def test_invalid_stage_layer(small_workload):
    bogus = StageSpec(
        kind=StageKind.COMBINATION, layer=99, chain_index=0,
        mapped_rows=4, mapped_cols=4, input_dim=4,
    )
    with pytest.raises(PredictorError):
        stage_features(small_workload, bogus)
