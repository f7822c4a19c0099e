"""From-scratch regression models for the Fig. 9(a) comparison.

The paper benchmarks its MLP predictor against the top regression models
from scikit-learn: XGBoost, SVR, Decision Tree, Linear Regression, and
Bayesian ("Bernoulli" in the paper's figure) Regression.  scikit-learn is
not available offline, so this module implements a representative member
of each family on plain numpy:

* :class:`LinearRegressor` / :class:`RidgeRegressor` — closed form;
* :class:`BayesianRidgeRegressor` — evidence-approximation ridge;
* :class:`DecisionTreeRegressor` — CART with variance-reduction splits;
* :class:`GradientBoostingRegressor` — boosted trees (XGBoost stand-in);
* :class:`KernelRidgeRegressor` — RBF kernel ridge (SVR stand-in);
* :class:`KNNRegressor` — k-nearest-neighbour averaging.

All models share the :class:`Regressor` interface (``fit``/``predict``/
``rmse``) and standardise inputs internally, so the comparison harness
treats them uniformly.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.perf import cache_key, profile
from repro.runtime import current_session


def root_mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """RMSE between two equally-shaped vectors."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise PredictorError("y_true and y_pred must have equal shapes")
    if y_true.size == 0:
        raise PredictorError("RMSE of empty arrays is undefined")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


class Regressor:
    """Common interface: standardising fit/predict plus RMSE scoring."""

    name = "base"

    def __init__(self) -> None:
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._fitted = False

    # ------------------------------------------------------------------
    @profile.phase(profile.PHASE_PREDICTOR)
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "Regressor":
        """Fit the model; returns self for chaining.

        Fits are memoised through the content-keyed artifact cache
        (:mod:`repro.perf.cache` — "fitted predictors" are exactly the
        artifact class it was built for): every fit here is a
        deterministic function of the training data and the estimator's
        configuration, so the fitted state is cached keyed on the class,
        the pre-fit attribute snapshot, and the data content.  The state
        travels as a pickle so cache hits hand back independent copies —
        restored estimators predict bit-identically to a fresh fit, and
        a hit performs no RNG draws (none of the estimators touches
        numpy's global stream, so skipping the work cannot shift
        downstream experiment randomness).
        """
        x, y = self._validate(features, targets)
        key = cache_key(
            "fitted-regressor", type(self).__qualname__, self.__dict__, x, y,
        )
        state = current_session().cache.get_or_compute(
            "fitted-regressors", key, lambda: self._fit_and_pack(x, y),
        )
        self.__dict__.update(pickle.loads(state))
        return self

    def _fit_and_pack(self, x: np.ndarray, y: np.ndarray) -> bytes:
        """Run the real fit and pickle the fitted attribute state."""
        self._x_mean = x.mean(axis=0)
        self._x_std = x.std(axis=0)
        self._x_std[self._x_std == 0] = 1.0
        self._fit((x - self._x_mean) / self._x_std, y)
        self._fitted = True
        return pickle.dumps(self.__dict__, protocol=pickle.HIGHEST_PROTOCOL)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for a feature matrix."""
        if not self._fitted:
            raise PredictorError(f"{self.name}: predict before fit")
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self._x_mean.size:
            raise PredictorError(
                f"{self.name}: fitted on {self._x_mean.size} features, "
                f"got features of shape {x.shape}"
            )
        return self._predict((x - self._x_mean) / self._x_std)

    def rmse(self, features: np.ndarray, targets: np.ndarray) -> float:
        """RMSE of this model's predictions on a labelled set."""
        return root_mean_squared_error(targets, self.predict(features))

    # ------------------------------------------------------------------
    def _validate(self, features: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64).ravel()
        if x.ndim != 2:
            raise PredictorError("features must be 2-D (samples, dims)")
        if x.shape[0] != y.size:
            raise PredictorError("features and targets disagree on samples")
        if x.shape[0] == 0:
            raise PredictorError("cannot fit on zero samples")
        return x, y

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearRegressor(Regressor):
    """Ordinary least squares with a bias term."""

    name = "LR"

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        self._coef, *_ = np.linalg.lstsq(design, y, rcond=None)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        return design @ self._coef


class RidgeRegressor(Regressor):
    """L2-regularised least squares."""

    name = "Ridge"

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if alpha < 0:
            raise PredictorError("alpha must be >= 0")
        self._alpha = alpha

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        dims = design.shape[1]
        penalty = self._alpha * np.eye(dims)
        penalty[-1, -1] = 0.0  # don't penalise the bias
        self._coef = np.linalg.solve(
            design.T @ design + penalty, design.T @ y,
        )

    def _predict(self, x: np.ndarray) -> np.ndarray:
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        return design @ self._coef


class BayesianRidgeRegressor(Regressor):
    """Evidence-approximation Bayesian linear regression.

    Iterates the classic MacKay updates for the weight precision ``alpha``
    and noise precision ``beta``; the posterior mean is the predictor.
    """

    name = "BR"

    def __init__(self, max_iter: int = 50, tol: float = 1e-6) -> None:
        super().__init__()
        if max_iter < 1:
            raise PredictorError("max_iter must be >= 1")
        self._max_iter = max_iter
        self._tol = tol

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        n, d = design.shape
        gram = design.T @ design
        xty = design.T @ y
        eigenvalues = np.linalg.eigvalsh(gram)
        alpha, beta = 1.0, 1.0 / max(y.var(), 1e-12)
        mean = np.zeros(d)
        for _ in range(self._max_iter):
            posterior_prec = alpha * np.eye(d) + beta * gram
            mean_new = beta * np.linalg.solve(posterior_prec, xty)
            gamma = float(np.sum(
                beta * eigenvalues / (alpha + beta * eigenvalues)
            ))
            alpha = gamma / max(float(mean_new @ mean_new), 1e-12)
            residual = y - design @ mean_new
            beta = max(n - gamma, 1e-12) / max(float(residual @ residual), 1e-12)
            if np.max(np.abs(mean_new - mean)) < self._tol:
                mean = mean_new
                break
            mean = mean_new
        self._coef = mean

    def _predict(self, x: np.ndarray) -> np.ndarray:
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        return design @ self._coef


@dataclass
class _TreeNode:
    """One CART node; leaves carry a value, internal nodes a split."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor(Regressor):
    """CART regression tree with variance-reduction splits."""

    name = "DT"

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 8,
        max_candidates: int = 32,
    ) -> None:
        super().__init__()
        if max_depth < 1 or min_samples_split < 2 or max_candidates < 1:
            raise PredictorError("invalid tree hyper-parameters")
        self._max_depth = max_depth
        self._min_samples_split = min_samples_split
        self._max_candidates = max_candidates
        self._root: Optional[_TreeNode] = None

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._root = self._build(x, y, depth=0)

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        if (
            depth >= self._max_depth
            or y.size < self._min_samples_split
            or np.allclose(y, y[0])
        ):
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray) -> Optional[Tuple[int, float]]:
        best_gain = 0.0
        best: Optional[Tuple[int, float]] = None
        parent_sse = float(((y - y.mean()) ** 2).sum())
        for feature in range(x.shape[1]):
            column = x[:, feature]
            unique = np.unique(column)
            if unique.size < 2:
                continue
            if unique.size > self._max_candidates:
                quantiles = np.linspace(0, 100, self._max_candidates + 2)[1:-1]
                candidates = np.unique(np.percentile(column, quantiles))
            else:
                candidates = (unique[:-1] + unique[1:]) / 2
            for threshold in candidates:
                mask = column <= threshold
                left, right = y[mask], y[~mask]
                if left.size == 0 or right.size == 0:
                    continue
                sse = (
                    float(((left - left.mean()) ** 2).sum())
                    + float(((right - right.mean()) ** 2).sum())
                )
                gain = parent_sse - sse
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold))
        return best

    def _predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class GradientBoostingRegressor(Regressor):
    """Gradient-boosted CART trees (the XGBoost stand-in)."""

    name = "XGB"

    def __init__(
        self,
        n_estimators: int = 80,
        learning_rate: float = 0.1,
        max_depth: int = 3,
    ) -> None:
        super().__init__()
        if n_estimators < 1 or not 0 < learning_rate <= 1 or max_depth < 1:
            raise PredictorError("invalid boosting hyper-parameters")
        self._n_estimators = n_estimators
        self._learning_rate = learning_rate
        self._max_depth = max_depth
        self._trees: List[DecisionTreeRegressor] = []
        self._base = 0.0

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._base = float(y.mean())
        residual = y - self._base
        self._trees = []
        for _ in range(self._n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self._max_depth, min_samples_split=4,
            )
            tree.fit(x, residual)
            update = tree.predict(x)
            residual = residual - self._learning_rate * update
            self._trees.append(tree)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        out = np.full(x.shape[0], self._base)
        for tree in self._trees:
            out = out + self._learning_rate * tree.predict(x)
        return out


class KernelRidgeRegressor(Regressor):
    """RBF kernel ridge regression (the SVR stand-in).

    Targets are centred internally: the kernel machine models deviations
    from the mean, which keeps the ridge prior sensible for targets far
    from zero.
    """

    name = "SVR"

    def __init__(self, alpha: float = 0.1, gamma: float = 0.05) -> None:
        super().__init__()
        if alpha <= 0 or gamma <= 0:
            raise PredictorError("alpha and gamma must be positive")
        self._alpha = alpha
        self._gamma = gamma
        self._y_mean = 0.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            (a ** 2).sum(axis=1)[:, None]
            - 2 * a @ b.T
            + (b ** 2).sum(axis=1)[None, :]
        )
        return np.exp(-self._gamma * np.maximum(sq, 0.0))

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._train_x = x
        self._y_mean = float(y.mean())
        k = self._kernel(x, x)
        self._dual = np.linalg.solve(
            k + self._alpha * np.eye(x.shape[0]), y - self._y_mean,
        )

    def _predict(self, x: np.ndarray) -> np.ndarray:
        return self._kernel(x, self._train_x) @ self._dual + self._y_mean


class KNNRegressor(Regressor):
    """k-nearest-neighbour averaging."""

    name = "KNN"

    def __init__(self, k: int = 5) -> None:
        super().__init__()
        if k < 1:
            raise PredictorError("k must be >= 1")
        self._k = k

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._train_x = x
        self._train_y = y

    def _predict(self, x: np.ndarray) -> np.ndarray:
        sq = (
            (x ** 2).sum(axis=1)[:, None]
            - 2 * x @ self._train_x.T
            + (self._train_x ** 2).sum(axis=1)[None, :]
        )
        k = min(self._k, self._train_y.size)
        nearest = np.argpartition(sq, k - 1, axis=1)[:, :k]
        return self._train_y[nearest].mean(axis=1)
