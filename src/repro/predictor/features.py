"""Table I feature extraction for the execution-time predictor.

Each sample describes one stage of one layer of one workload with the ten
features of Table I: the Combination input/weight matrix dimensions, the
Aggregation adjacency/feature matrix dimensions, the graph sparsity ``s``,
and the layer index ``k``.  For weight-family stages (CO/LC) the
Aggregation slots carry that layer's aggregation geometry and vice versa —
the ``stage slot`` convention below keeps one fixed-width vector per stage
while still separating the two families, exactly as the ablation in the
paper requires (dropping any one feature must hurt).

Targets are ``log10`` of the stage's mean no-replica micro-batch time:
stage times span four orders of magnitude, so the log keeps RMSE
comparable across stages (the paper's RMSE of 0.0022 is similarly on
normalised times).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.stages.latency import StageTimingModel
from repro.stages.stage import StageKind, StageSpec
from repro.stages.workload import Workload

FEATURE_NAMES: Tuple[str, ...] = (
    "r_ifm_co",   # rows of the Combination input matrix (micro-batch)
    "c_ifm_co",   # cols of the Combination input matrix (d_in)
    "r_e_co",     # rows of the mapped weight matrix (d_in)
    "c_e_co",     # cols of the mapped weight matrix (d_out)
    "r_a_ag",     # rows of the adjacency input (micro-batch)
    "c_a_ag",     # cols of the adjacency input (num vertices)
    "r_e_ag",     # rows of the mapped feature matrix (num vertices)
    "c_e_ag",     # cols of the mapped feature matrix (d_out)
    "sparsity",   # graph sparsity s
    "layer",      # current layer k
)

NUM_FEATURES = len(FEATURE_NAMES)

# Within one layer the ten Table I features are shared between that layer's
# stages, so the predictor keeps one head per stage *kind* and dispatches on
# this code, carried as an extra column that never reaches the regressors.
STAGE_KIND_CODES = {
    StageKind.COMBINATION: 0,
    StageKind.AGGREGATION: 1,
    StageKind.LOSS: 2,
    StageKind.GRADIENT: 3,
}


def stage_features(workload: Workload, stage: StageSpec) -> np.ndarray:
    """The 10-feature vector of Table I for one stage.

    Dimensions are log-scaled (``log10(1 + x)``) so the predictor sees
    magnitudes rather than raw counts spanning six decades.
    """
    layer_index = stage.layer - 1
    if not 0 <= layer_index < workload.num_layers:
        raise PredictorError(f"stage layer {stage.layer} outside workload")
    d_in, d_out = workload.layer_dims[layer_index]
    b = workload.micro_batch
    n = workload.num_vertices

    if stage.kind in (StageKind.COMBINATION, StageKind.LOSS):
        co = (b, stage.input_dim, stage.mapped_rows, stage.mapped_cols)
        ag = (b, n, n, d_out)
    else:
        co = (b, d_in, d_in, d_out)
        ag = (b, stage.input_dim, stage.mapped_rows, stage.mapped_cols)

    raw = np.array([*co, *ag], dtype=np.float64)
    vector = np.empty(NUM_FEATURES, dtype=np.float64)
    vector[:8] = np.log10(1.0 + raw)
    # Graph sparsity, log-transformed like the dimension features: raw s
    # saturates near 1.0 for every real graph (0.99 vs 0.999 hides a 10x
    # difference in edge count), so the predictor sees log10(1 - s).
    vector[8] = np.log10(max(1.0 - workload.graph.sparsity, 1e-9))
    vector[9] = float(stage.layer)
    return vector


def stage_features_with_kind(workload: Workload, stage: StageSpec) -> np.ndarray:
    """Table I features plus the stage-kind dispatch code (11 values)."""
    vector = np.empty(NUM_FEATURES + 1, dtype=np.float64)
    vector[:NUM_FEATURES] = stage_features(workload, stage)
    vector[NUM_FEATURES] = float(STAGE_KIND_CODES[stage.kind])
    return vector


def stage_samples(
    timing_model: StageTimingModel,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """(kind-tagged features, log10-time targets, stage names) for a workload.

    Feature rows carry the dispatch code in their last column (see
    :data:`STAGE_KIND_CODES`).
    """
    workload = timing_model.workload
    rows: List[np.ndarray] = []
    targets: List[float] = []
    names: List[str] = []
    for stage in timing_model.stages:
        rows.append(stage_features_with_kind(workload, stage))
        time_ns = timing_model.mean_stage_time_ns(stage, replicas=1)
        targets.append(float(np.log10(max(time_ns, 1e-9))))
        names.append(stage.name)
    return np.vstack(rows), np.asarray(targets), names
