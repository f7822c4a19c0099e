"""Oracles for the predictor layer: the original MLP fit loop and the
per-(stage, micro-batch) profiling loop.

:func:`mlp_fit_reference` is the original allocating loop: one array per
parameter and per Adam moment, a fresh array for every intermediate, and
its own forward pass (:func:`_forward_reference`), so it shares only
``_init_params`` with the code it checks.
:meth:`repro.predictor.mlp.MLPRegressor._fit` keeps every parameter,
gradient and moment in one flat buffer and writes forward and backward
into preallocated buffers, yet applies the same IEEE operations to every
element in the same order, so fitted weights, biases and loss histories
agree byte for byte.  :func:`repro.predictor.profiler.profile_stage_times`
reads one whole-epoch stage-time matrix; :func:`profile_stage_times_reference`
walks the stage x micro-batch grid in Python.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.predictor.mlp import MLPRegressor
from repro.predictor.profiler import ProfilingResult
from repro.stages.latency import StageTimingModel
from tests.oracles.stages import microbatch_time_reference


def _forward_reference(
    model: MLPRegressor, x: np.ndarray,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The original allocating forward: the output and every layer's input."""
    activations = [x]
    out = x
    last = len(model._weights) - 1
    for i, (w, b) in enumerate(zip(model._weights, model._biases)):
        out = out @ w + b
        if i != last:
            out = np.maximum(out, 0.0)
        activations.append(out)
    return out, activations


def mlp_fit_reference(
    model: MLPRegressor, x: np.ndarray, y: np.ndarray,
) -> None:
    """The original allocation-heavy training loop (equivalence
    oracle for :meth:`MLPRegressor._fit`; identical RNG stream and update
    maths)."""
    rng = np.random.default_rng(model._seed)
    model._y_mean = float(y.mean())
    model._y_std = float(y.std()) or 1.0
    targets = (y - model._y_mean) / model._y_std

    dims = [x.shape[1], *model._hidden, 1]
    model._init_params(dims, rng)
    m_w = [np.zeros_like(w) for w in model._weights]
    v_w = [np.zeros_like(w) for w in model._weights]
    m_b = [np.zeros_like(b) for b in model._biases]
    v_b = [np.zeros_like(b) for b in model._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    model.loss_history = []

    n = x.shape[0]
    for _ in range(model._epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, model._batch_size):
            batch = order[start:start + model._batch_size]
            xb, yb = x[batch], targets[batch]
            pred, acts = _forward_reference(model, xb)
            err = pred.ravel() - yb
            epoch_loss += float((err ** 2).sum())

            # Backprop through the MSE head.
            grad = (2.0 / xb.shape[0]) * err[:, None]
            grads_w: List[np.ndarray] = [None] * len(model._weights)
            grads_b: List[np.ndarray] = [None] * len(model._biases)
            for layer in range(len(model._weights) - 1, -1, -1):
                grads_w[layer] = acts[layer].T @ grad + model._decay * model._weights[layer]
                grads_b[layer] = grad.sum(axis=0)
                if layer > 0:
                    grad = grad @ model._weights[layer].T
                    grad = grad * (acts[layer] > 0)

            step += 1
            correction1 = 1 - beta1 ** step
            correction2 = 1 - beta2 ** step
            for layer in range(len(model._weights)):
                m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * grads_w[layer]
                v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * grads_w[layer] ** 2
                m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * grads_b[layer]
                v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * grads_b[layer] ** 2
                model._weights[layer] -= model._lr * (
                    (m_w[layer] / correction1)
                    / (np.sqrt(v_w[layer] / correction2) + eps)
                )
                model._biases[layer] -= model._lr * (
                    (m_b[layer] / correction1)
                    / (np.sqrt(v_b[layer] / correction2) + eps)
                )
        model.loss_history.append(epoch_loss / n)


def profile_stage_times_reference(
    timing_model: StageTimingModel,
    epochs: int = 1,
) -> ProfilingResult:
    """Original per-(stage, micro-batch) loop, kept as equivalence oracle."""
    if epochs < 1:
        raise PredictorError("epochs must be >= 1")
    workload = timing_model.workload
    stage_times: Dict[str, float] = {}
    total = 0.0
    for stage in timing_model.stages:
        per_stage = 0.0
        for mb in range(workload.num_microbatches):
            per_stage += microbatch_time_reference(timing_model, stage, mb, 1)
        stage_times[stage.name] = per_stage / workload.num_microbatches
        total += per_stage
    return ProfilingResult(
        stage_times_ns=stage_times,
        overhead_ns=total * epochs,
        epochs_profiled=epochs,
    )
