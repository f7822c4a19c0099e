"""The GCN model: layer dims, analog noise, weights and model stream.

Each layer computes ``H_l = act( A_hat @ C_l )`` with
``C_l = H_{l-1} @ W_l`` (Combination then Aggregation, Eq. 1–2 of the
paper).  The PIM twist: the Aggregation stage reads combination outputs
*from the crossbars*, so vertices whose rows were not rewritten this epoch
contribute **stale** combination outputs, and the backward pass treats
stale rows as constants (no gradient flows through them) — matching what
the hardware computes.

:class:`GCN` holds what a run is built from: validated layer dims, the
analog-noise setting, the initial weights and the model RNG stream
(``_rng``, past the weight-init draws) that analog noise draws from.
The passes live in one place, :mod:`repro.gcn.batched`, which stacks R
models into one ``[R, ...]`` model (``_StackedGCN``) for training and
:func:`~repro.gcn.batched.infer` (a fleet of one) for inference; the
serial forward/backward it matches bit for bit is an oracle in
``tests/oracles/gnn.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError

Params = Dict[str, np.ndarray]


class GCN:
    """A multi-layer GCN's dims, analog noise, weights and model stream.

    Parameters
    ----------
    layer_dims:
        Per-layer ``(d_in, d_out)``; consecutive dims must chain.
    random_state:
        Seed for weight init and analog noise.
    analog_noise_sigma:
        Relative Gaussian noise applied to every aggregation output,
        modelling ReRAM conductance variation and ADC error (the
        device-variation study).  ``0.0`` is ideal hardware.
    """

    def __init__(
        self,
        layer_dims: Sequence[Tuple[int, int]],
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if not layer_dims:
            raise TrainingError("need at least one layer")
        for (_, prev_out), (next_in, _) in zip(layer_dims[:-1], layer_dims[1:]):
            if prev_out != next_in:
                raise TrainingError("layer dimensions do not chain")
        if analog_noise_sigma < 0:
            raise TrainingError("analog_noise_sigma must be >= 0")
        self._dims = [tuple(d) for d in layer_dims]
        self._analog_noise = analog_noise_sigma
        self._rng = np.random.default_rng(random_state)
        self.params: Params = {}
        for i, (d_in, d_out) in enumerate(self._dims):
            scale = np.sqrt(2.0 / (d_in + d_out))
            self.params[f"W{i}"] = self._rng.normal(
                0.0, scale, size=(d_in, d_out),
            ).astype(np.float32)

    @property
    def num_layers(self) -> int:
        """Model depth L."""
        return len(self._dims)

    @property
    def analog_noise_sigma(self) -> float:
        """Relative analog MVM noise (0.0 = ideal hardware)."""
        return self._analog_noise

    @property
    def layer_dims(self) -> List[Tuple[int, int]]:
        """Per-layer (d_in, d_out)."""
        return list(self._dims)
