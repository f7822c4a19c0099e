"""From-scratch MLP regressor — GoPIM's execution-time predictor core.

The paper settles on a three-layer MLP (10 input neurons, 256 hidden, 1
output) after sweeping depth and width (Fig. 9b/c).  This implementation
supports arbitrary hidden-layer tuples so those sweeps can be reproduced,
trains with Adam on mini-batch MSE, and standardises inputs/targets
internally like the other :class:`~repro.predictor.regressors.Regressor`
subclasses.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import PredictorError
from repro.predictor.regressors import Regressor


class MLPRegressor(Regressor):
    """Multi-layer perceptron with ReLU activations and Adam training.

    Parameters
    ----------
    hidden_layers:
        Sizes of the hidden layers; ``(256,)`` is the paper's pick (a
        "three-layer MLP": input + one hidden + output).
    epochs / batch_size / learning_rate:
        Adam training schedule.
    weight_decay:
        L2 regularisation strength.
    random_state:
        Seed for weight init and batch shuffling (deterministic fits).
    """

    name = "MLP"

    def __init__(
        self,
        hidden_layers: Sequence[int] = (256,),
        epochs: int = 200,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        random_state: int = 0,
    ) -> None:
        super().__init__()
        if not hidden_layers or any(h < 1 for h in hidden_layers):
            raise PredictorError("hidden_layers must be positive sizes")
        if epochs < 1 or batch_size < 1:
            raise PredictorError("epochs and batch_size must be >= 1")
        if learning_rate <= 0:
            raise PredictorError("learning_rate must be positive")
        if weight_decay < 0:
            raise PredictorError("weight_decay must be >= 0")
        self._hidden = tuple(int(h) for h in hidden_layers)
        self._epochs = epochs
        self._batch_size = batch_size
        self._lr = learning_rate
        self._decay = weight_decay
        self._seed = random_state
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._y_mean = 0.0
        self._y_std = 1.0
        self.loss_history: List[float] = []

    @property
    def num_layers(self) -> int:
        """Layer count in the paper's convention (input + hidden + output)."""
        return len(self._hidden) + 2

    # ------------------------------------------------------------------
    def _init_params(self, dims: Sequence[int], rng: np.random.Generator) -> None:
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He init for ReLU nets
            self._weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _forward(self, x: np.ndarray, acts: Sequence[np.ndarray]) -> np.ndarray:
        """Run the net on ``x``, writing layer ``i``'s output into
        ``acts[i]`` (shape ``(rows, dims[i + 1])``); returns ``acts[-1]``."""
        out = x
        last = len(self._weights) - 1
        for i, (w, b, z) in enumerate(zip(self._weights, self._biases, acts)):
            np.matmul(out, w, out=z)
            np.add(z, b, out=z)
            if i != last:
                np.maximum(z, 0.0, out=z)
            out = z
        return out

    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        targets = (y - self._y_mean) / self._y_std

        dims = [x.shape[1], *self._hidden, 1]
        self._init_params(dims, rng)
        num_layers = len(self._weights)
        # Flat layout: the parameters, their gradients and both Adam
        # moments each live in one float64 buffer, every weight first and
        # then every bias, and the per-layer arrays are reshaped views.
        # Adam then runs its 13 ufunc calls once per step over the whole
        # buffer, and weight decay runs once over the leading weight slice.
        # Elementwise IEEE ops do not depend on an element's position, so
        # every parameter sees the same ops in the same order as in
        # ``mlp_fit_reference`` (tests/oracles/predictor.py) and the fit
        # is byte-identical to it (tests/predictor/test_mlp_fastpath.py).
        initial = (*self._weights, *self._biases)
        params = np.concatenate([p.ravel() for p in initial])
        grads, m, v, num, den = (np.zeros_like(params) for _ in range(5))
        views = _views(params, initial)
        self._weights, self._biases = views[:num_layers], views[num_layers:]
        grad_views = _views(grads, initial)
        grads_w, grads_b = grad_views[:num_layers], grad_views[num_layers:]
        size_w = sum(w.size for w in self._weights)
        weights, weight_grads = params[:size_w], grads[:size_w]
        decay = num[:size_w]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_history = []

        n = x.shape[0]
        # All epoch shuffles as one (epochs, n) matrix up front — the RNG
        # stream consumes the identical sequence of permutation draws, and
        # no other draw happens after initialisation.
        orders = np.stack([rng.permutation(n) for _ in range(self._epochs)])
        # Per-layer outputs, output gradients and ReLU masks, allocated once
        # per distinct batch size (full batches and a short last one).
        buffers = {}
        for epoch in range(self._epochs):
            order = orders[epoch]
            epoch_loss = 0.0
            for start in range(0, n, self._batch_size):
                batch = order[start:start + self._batch_size]
                rows = batch.size
                if rows not in buffers:
                    buffers[rows] = (
                        [np.empty((rows, d)) for d in dims[1:]],
                        [np.empty((rows, d)) for d in dims[1:]],
                        [np.empty((rows, d), dtype=bool) for d in dims[1:-1]],
                    )
                acts, deltas, masks = buffers[rows]
                xb = x[batch]
                pred = self._forward(xb, acts)
                err = deltas[-1][:, 0]
                np.subtract(pred[:, 0], targets[batch], out=err)
                epoch_loss += float((err ** 2).sum())

                # Backprop through the MSE head; deltas[layer] is the loss
                # gradient at layer ``layer``'s output.
                np.multiply(err, 2.0 / rows, out=err)
                for layer in range(num_layers - 1, -1, -1):
                    delta = deltas[layer]
                    below = acts[layer - 1] if layer > 0 else xb
                    np.matmul(below.T, delta, out=grads_w[layer])
                    np.sum(delta, axis=0, out=grads_b[layer])
                    if layer == 0:
                        break
                    back = deltas[layer - 1]
                    if layer == num_layers - 1:
                        # The width-1 output makes ``delta @ w.T`` a K=1
                        # matmul, which BLAS computes as ``0 + g * w``; the
                        # broadcast product plus 0.0 gives the same bits,
                        # down to turning -0.0 into 0.0.
                        w_row = self._weights[layer][:, 0]
                        np.multiply(delta, w_row, out=back)
                        np.add(back, 0.0, out=back)
                    else:
                        np.matmul(delta, self._weights[layer].T, out=back)
                    np.greater(below, 0.0, out=masks[layer - 1])
                    np.multiply(back, masks[layer - 1], out=back)
                np.multiply(weights, self._decay, out=decay)
                np.add(weight_grads, decay, out=weight_grads)

                step += 1
                correction1 = 1 - beta1 ** step
                correction2 = 1 - beta2 ** step
                # m = beta1 * m + (1 - beta1) * g, in place.
                np.multiply(m, beta1, out=m)
                np.multiply(grads, 1 - beta1, out=num)
                np.add(m, num, out=m)
                # v = beta2 * v + (1 - beta2) * g**2, in place (g * g is
                # bitwise-equal to g ** 2 and skips the generic pow loop).
                np.multiply(v, beta2, out=v)
                np.multiply(grads, grads, out=den)
                np.multiply(den, 1 - beta2, out=den)
                np.add(v, den, out=v)
                # param -= lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(m, correction1, out=num)
                np.divide(v, correction2, out=den)
                np.sqrt(den, out=den)
                np.add(den, eps, out=den)
                np.divide(num, den, out=num)
                np.multiply(num, self._lr, out=num)
                np.subtract(params, num, out=params)
            self.loss_history.append(epoch_loss / n)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        acts = [np.empty((x.shape[0], w.shape[1])) for w in self._weights]
        return self._forward(x, acts).ravel() * self._y_std + self._y_mean


def _views(flat: np.ndarray, like: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to the shapes of ``like``."""
    views, start = [], 0
    for array in like:
        views.append(flat[start:start + array.size].reshape(array.shape))
        start += array.size
    return views
