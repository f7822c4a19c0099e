"""The Time Predictor façade GoPIM's Resource Allocator consumes.

Within one layer the ten Table I features are shared by that layer's
stages, so the predictor keeps one regression head per stage *kind*
(CO/AG/LC/GC); :class:`PerKindRegressor` dispatches on the kind code that
:func:`~repro.predictor.features.stage_features_with_kind` appends as the
last feature column (the code itself never reaches the heads).

The default heads are the paper's pick: a three-layer MLP with 256 hidden
neurons.  After a one-off :meth:`fit` on generated samples, predicting all
stages of a workload takes milliseconds — the property that lets GoPIM
skip the 1688-second profiling runs of prior work.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import PredictorError
from repro.predictor.dataset import PredictorDataset
from repro.predictor.features import stage_features_with_kind
from repro.predictor.mlp import MLPRegressor
from repro.predictor.regressors import Regressor, root_mean_squared_error
from repro.stages.workload import Workload
from repro.perf import profile


class PerKindRegressor(Regressor):
    """One regression head per stage kind, dispatched on a code column.

    ``fit``/``predict`` take feature matrices whose *last* column is the
    stage-kind code; the remaining columns go to the per-kind heads.
    """

    name = "per-kind"

    def __init__(self, head_factory: Callable[[], Regressor]) -> None:
        super().__init__()
        self._factory = head_factory
        self._heads: Dict[int, Regressor] = {}

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "PerKindRegressor":
        """Fit one head per distinct kind code present in the data."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64).ravel()
        if x.ndim != 2 or x.shape[1] < 2:
            raise PredictorError("need (samples, >=2) kind-tagged features")
        if x.shape[0] != y.size:
            raise PredictorError("features and targets disagree on samples")
        kinds = x[:, -1].astype(np.int64)
        self._heads = {}
        self.name = f"per-kind[{self._factory().name}]"
        for kind in np.unique(kinds):
            mask = kinds == kind
            head = self._factory()
            head.fit(x[mask, :-1], y[mask])
            self._heads[int(kind)] = head
        self._fitted = True
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict, routing each row to its kind's head."""
        if not self._fitted:
            raise PredictorError("predict before fit")
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        kinds = x[:, -1].astype(np.int64)
        out = np.empty(x.shape[0])
        for kind in np.unique(kinds):
            head = self._heads.get(int(kind))
            if head is None:
                raise PredictorError(
                    f"no head trained for stage kind code {int(kind)}"
                )
            mask = kinds == kind
            out[mask] = head.predict(x[mask, :-1])
        return out

    def rmse(self, features: np.ndarray, targets: np.ndarray) -> float:
        """RMSE over a kind-tagged labelled set."""
        return root_mean_squared_error(targets, self.predict(features))


def default_head_factory() -> Regressor:
    """The paper's three-layer, 256-hidden-neuron MLP."""
    return MLPRegressor(
        hidden_layers=(256,), epochs=600,
        learning_rate=3e-3, weight_decay=1e-4,
    )


class TimePredictor:
    """Predicts per-stage no-replica execution times for GCN workloads."""

    def __init__(self, model: Optional[Regressor] = None) -> None:
        self._model = model if model is not None else PerKindRegressor(
            default_head_factory,
        )
        self._fitted = False
        # (feature-row bytes, stage names) -> predicted stage times.
        self._predictions: Dict[tuple, Dict[str, float]] = {}

    @property
    def model(self) -> Regressor:
        """The underlying regression model (usually a PerKindRegressor)."""
        return self._model

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._fitted

    @profile.phase(profile.PHASE_PREDICTOR)
    def fit(self, dataset: PredictorDataset) -> "TimePredictor":
        """Train on a generated dataset
        (:func:`~repro.predictor.dataset.generate_dataset`)."""
        self._model.fit(dataset.features, dataset.targets)
        self._fitted = True
        self._predictions = {}
        return self

    def predict_stage_times(self, workload: Workload) -> Dict[str, float]:
        """Stage name -> predicted no-replica time in ns.

        Memoised per (stacked kind-tagged feature rows, stage names): a
        workload whose features were predicted before reads the stored
        times.  A miss predicts one row at a time, as every caller always
        has, so no BLAS call changes shape.
        """
        if not self._fitted:
            raise PredictorError("TimePredictor.predict before fit")
        stages = workload.stage_chain()
        rows = np.stack([
            stage_features_with_kind(workload, stage) for stage in stages
        ])
        key = (rows.tobytes(), tuple(stage.name for stage in stages))
        times = self._predictions.get(key)
        if times is None:
            times = {}
            for stage, features in zip(stages, rows):
                log_time = float(self._model.predict(features[None, :])[0])
                times[stage.name] = float(10.0 ** log_time)
            self._predictions[key] = times
        return dict(times)

    def __getstate__(self) -> dict:
        # Memoised predictions rebuild on demand: never pickle them.
        state = self.__dict__.copy()
        state["_predictions"] = {}
        return state
