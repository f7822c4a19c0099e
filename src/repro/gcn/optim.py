"""Adam, the optimiser of the numpy GCN substrate.

It operates on flat dicts of parameter arrays and their gradients,
updating in place.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import TrainingError

Params = Dict[str, np.ndarray]


class Adam:
    """Adam with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise TrainingError("betas must be in [0, 1)")
        self._lr = learning_rate
        self._beta1 = beta1
        self._beta2 = beta2
        self._eps = eps
        self._m: Params = {}
        self._v: Params = {}
        self._step = 0

    def step(self, params: Params, grads: Params) -> None:
        """Apply one update in place."""
        self._step += 1
        c1 = 1 - self._beta1 ** self._step
        c2 = 1 - self._beta2 ** self._step
        for key, grad in grads.items():
            if key not in params:
                raise TrainingError(f"gradient for unknown parameter {key!r}")
            m = self._m.setdefault(key, np.zeros_like(grad))
            v = self._v.setdefault(key, np.zeros_like(grad))
            m *= self._beta1
            m += (1 - self._beta1) * grad
            v *= self._beta2
            v += (1 - self._beta2) * grad ** 2
            params[key] -= self._lr * (m / c1) / (np.sqrt(v / c2) + self._eps)
