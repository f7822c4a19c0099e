"""ML execution-time prediction (Section V-A) and its baselines."""

from repro.predictor.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    stage_features,
    stage_samples,
)
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import (
    BayesianRidgeRegressor,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
    LinearRegressor,
    Regressor,
    RidgeRegressor,
    root_mean_squared_error,
)
from repro.predictor.dataset import (
    PredictorDataset,
    generate_dataset,
    random_workload,
)
from repro.predictor.feature_ablation import ablate_features, importance_ranking
from repro.predictor.predictor import PerKindRegressor, TimePredictor
from repro.predictor.profiler import ProfilingResult, profile_stage_times
from repro.predictor.evaluate import (
    GeneralisationResult,
    compare_models,
    default_model_zoo,
    leave_one_dataset_out,
    prediction_accuracy,
    sweep_mlp_depth,
    sweep_mlp_width,
)

__all__ = [
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "stage_features",
    "stage_samples",
    "MLPRegressor",
    "BayesianRidgeRegressor",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "KernelRidgeRegressor",
    "KNNRegressor",
    "LinearRegressor",
    "Regressor",
    "RidgeRegressor",
    "root_mean_squared_error",
    "PredictorDataset",
    "generate_dataset",
    "random_workload",
    "TimePredictor",
    "PerKindRegressor",
    "ablate_features",
    "importance_ranking",
    "ProfilingResult",
    "profile_stage_times",
    "GeneralisationResult",
    "compare_models",
    "default_model_zoo",
    "leave_one_dataset_out",
    "prediction_accuracy",
    "sweep_mlp_depth",
    "sweep_mlp_width",
]
