"""Adam, the optimiser of the numpy GCN substrate.

It operates on flat dicts of parameter arrays and their gradients,
updating in place, at the one step size and decay rates every run
trains with.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import TrainingError

Params = Dict[str, np.ndarray]

LEARNING_RATE = 0.01
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction."""

    def __init__(self) -> None:
        self._m: Params = {}
        self._v: Params = {}
        self._step = 0

    def step(self, params: Params, grads: Params) -> None:
        """Apply one update in place."""
        self._step += 1
        c1 = 1 - BETA1 ** self._step
        c2 = 1 - BETA2 ** self._step
        for key, grad in grads.items():
            if key not in params:
                raise TrainingError(f"gradient for unknown parameter {key!r}")
            m = self._m.setdefault(key, np.zeros_like(grad))
            v = self._v.setdefault(key, np.zeros_like(grad))
            m *= BETA1
            m += (1 - BETA1) * grad
            v *= BETA2
            v += (1 - BETA2) * grad ** 2
            params[key] -= LEARNING_RATE * (m / c1) / (np.sqrt(v / c2) + EPS)
