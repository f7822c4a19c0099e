"""Oracle for the split harness: the serial ``train_with_split`` loop.

The ablation training loop as it was before the stacked engine
(:func:`repro.gcn.batched.train_split_replicas`) became the only
split-harness trainer: one model at a time, with the staleness
semantics injected as per-epoch closures.  :func:`train_fleet` builds
the closures the harness's serial fallback built — the stale-feature
store refreshed with ``plan.vertices_updated_at(epoch)`` (empty updates
at eval), and a ``deque(maxlen=delay + 1)`` of weight snapshots — and
runs each model through the loop.  Every replica of
:func:`repro.experiments.harness.train_with_split` must reproduce it bit
for bit: best accuracy, final weights and model-stream RNG state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TrainingError
from repro.gcn.losses import accuracy, cross_entropy_loss
from repro.gcn.model import StaleFeatureStore
from repro.gcn.optim import Adam

EpochKwargs = Union[None, Mapping[str, Any], Callable[[int], Mapping[str, Any]]]


def split_vertices(
    num_vertices: int,
    seed: int,
    train_fraction: float = 0.7,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic sorted train/test vertex split (the ablation split)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_vertices)
    cut = int(train_fraction * num_vertices)
    return np.sort(order[:cut]), np.sort(order[cut:])


def _resolve_kwargs(spec: EpochKwargs, epoch: int) -> Dict[str, Any]:
    if spec is None:
        return {}
    if callable(spec):
        return dict(spec(epoch))
    return dict(spec)


def train_with_split(
    model,
    graph,
    epochs: int,
    seed: int,
    *,
    learning_rate: float = 0.01,
    train_fraction: float = 0.7,
    forward_kwargs: EpochKwargs = None,
    eval_kwargs: EpochKwargs = None,
    forward_params: Optional[Callable[[int], Dict[str, np.ndarray]]] = None,
) -> float:
    """Best test accuracy of a full-batch Adam training loop.

    Deterministic 70/30 vertex split, full-graph forward, cross-entropy
    on the train vertices, Adam step, greedy best-of-epochs test
    accuracy.  ``forward_kwargs`` / ``eval_kwargs`` inject per-epoch
    keyword arguments into the training and evaluation forwards (a
    dict, or a callable of the epoch index).  ``forward_params`` returns
    the (stale) parameter dict to run the training forward/backward
    under, while the optimizer still steps the live parameters.
    """
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if graph.labels is None:
        raise TrainingError("needs a labelled graph")

    train_idx, test_idx = split_vertices(
        graph.num_vertices, seed, train_fraction,
    )
    optimizer = Adam(learning_rate=learning_rate)
    best = 0.0
    for epoch in range(epochs):
        stale = None if forward_params is None else forward_params(epoch)
        live = model.params
        if stale is not None:
            model.params = stale
        logits, cache = model.forward(
            graph, graph.features, training=True,
            **_resolve_kwargs(forward_kwargs, epoch),
        )
        _, grad_logits = cross_entropy_loss(
            logits[train_idx], graph.labels[train_idx],
        )
        grad_full = np.zeros_like(logits)
        grad_full[train_idx] = grad_logits
        grads = model.backward(graph, cache, grad_full)
        if stale is not None:
            model.params = live
        optimizer.step(model.params, grads)

        eval_logits, _ = model.forward(
            graph, graph.features, **_resolve_kwargs(eval_kwargs, epoch),
        )
        best = max(best, accuracy(
            eval_logits[test_idx], graph.labels[test_idx],
        ))
    return best


def train_fleet(
    models: Sequence[Any],
    graph,
    epochs: int,
    seed: int,
    *,
    update_plans: Optional[Sequence[Any]] = None,
    param_delays: Optional[Sequence[int]] = None,
) -> List[float]:
    """One serial :func:`train_with_split` run per model.

    ``update_plans`` (one optional plan per model) turns the
    stale-feature store on; ``param_delays`` (one per model) trains
    under weight snapshots ``delay`` epochs old.
    """
    plans = (
        list(update_plans) if update_plans is not None
        else [None] * len(models)
    )
    delays = (
        list(param_delays) if param_delays is not None
        else [0] * len(models)
    )
    results: List[float] = []
    for model, plan, delay in zip(models, plans, delays):
        forward_kwargs: EpochKwargs = None
        eval_kwargs: EpochKwargs = None
        if update_plans is not None:
            store = StaleFeatureStore(model.num_layers)
            forward_kwargs = (
                lambda epoch, _store=store, _plan=plan: {
                    "store": _store,
                    "updated": (
                        None if _plan is None
                        else _plan.vertices_updated_at(epoch)
                    ),
                }
            )
            eval_kwargs = {
                "store": store, "updated": np.array([], dtype=np.int64),
            }
        forward_params = None
        if param_delays is not None:
            snapshots: deque = deque(maxlen=delay + 1)

            def forward_params(
                _epoch: int,
                _snapshots: deque = snapshots,
                _model=model,
            ) -> Dict[str, np.ndarray]:
                _snapshots.append(
                    {k: v.copy() for k, v in _model.params.items()}
                )
                return _snapshots[0]

        results.append(train_with_split(
            model, graph, epochs, seed,
            forward_kwargs=forward_kwargs,
            eval_kwargs=eval_kwargs,
            forward_params=forward_params,
        ))
    return results
