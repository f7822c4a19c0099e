"""Oracles for the node-classification and link-prediction trainers.

The serial training loops as they were before the replica-batched engine
(:mod:`repro.gcn.batched`) became the only trainer: ``train`` (strided
eval, logits reuse) and ``train_reference`` (evaluate every epoch).
:class:`repro.gcn.trainer.NodeClassificationTrainer` and
:class:`repro.gcn.trainer.LinkPredictionTrainer` (fleets of one) and every
replica of :func:`repro.gcn.batched.train_replicas` must reproduce them bit
for bit: losses, metrics, final weights and RNG stream positions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.batched import (
    TrainingResult,
    _split_indices,
    _validate_schedule,
)
from repro.gcn.losses import accuracy, cross_entropy_loss
from repro.gcn.model import GCN, StaleFeatureStore
from repro.gcn.optim import Adam
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
from tests.oracles.link_losses import link_accuracy, link_bce_loss

# Shared empty update set for eval forwards (never mutated).
_NO_UPDATES = np.array([], dtype=np.int64)


class NodeClassificationTrainer:
    """Full-batch node-classification training with optional staleness."""

    def __init__(
        self,
        graph: Graph,
        hidden_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = 0.3,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None or graph.labels is None:
            raise TrainingError("node task needs features and labels")
        if num_layers < 1:
            raise TrainingError("num_layers must be >= 1")
        self._graph = graph
        self._rng = np.random.default_rng(random_state)
        dims: List[Tuple[int, int]] = []
        d_in = graph.feature_dim
        for layer in range(num_layers):
            d_out = graph.num_classes if layer == num_layers - 1 else hidden_dim
            dims.append((d_in, d_out))
            d_in = d_out
        self.model = GCN(dims, dropout=dropout, random_state=random_state,
                         analog_noise_sigma=analog_noise_sigma)
        self._optimizer = Adam(learning_rate=learning_rate)
        self.train_idx, self.test_idx = _split_indices(
            graph.num_vertices, test_fraction, self._rng,
        )
        self._store = StaleFeatureStore(self.model.num_layers)
        self._grad_buffer: Optional[np.ndarray] = None

    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` offsets the plan's epoch phase so callers driving
        the loop one epoch at a time (the co-simulator) keep the ISU
        minor-refresh cadence.  ``eval_every`` strides metric evaluation
        (the final epoch is always evaluated); losses are recorded every
        epoch regardless and match :meth:`train_reference` exactly.
        """
        _validate_schedule(epochs, start_epoch, eval_every)
        if self.model.analog_noise_sigma > 0:
            eval_every = 1  # eval forwards draw RNG; keep the stream fixed
        reuse_logits = (
            self.model.dropout == 0.0
            and self.model.analog_noise_sigma == 0.0
        )
        graph = self._graph
        features = graph.features
        labels = graph.labels
        store = self._store
        result = TrainingResult()
        last_epoch = start_epoch + epochs - 1
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            logits, cache = self.model.forward(
                graph, features, store=store, updated=updated, training=True,
            )
            loss, grad_logits = cross_entropy_loss(
                logits[self.train_idx], labels[self.train_idx],
            )
            if (
                self._grad_buffer is None
                or self._grad_buffer.shape != logits.shape
            ):
                self._grad_buffer = np.zeros_like(logits)
            else:
                self._grad_buffer.fill(0.0)
            grad_full = self._grad_buffer
            grad_full[self.train_idx] = grad_logits
            grads = self.model.backward(graph, cache, grad_full)
            self._optimizer.step(self.model.params, grads)

            result.losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_logits:
                # Eval runs with an empty update set, so it reads the
                # resident (stale) combination outputs the training
                # forward just wrote: without dropout or analog noise the
                # eval output *is* the training logits, bit for bit.
                eval_logits = logits
            else:
                eval_logits, _ = self.model.forward(
                    graph, features, store=store, updated=_NO_UPDATES,
                    training=False,
                )
            result.eval_epochs.append(epoch)
            result.train_metrics.append(
                accuracy(eval_logits[self.train_idx], labels[self.train_idx])
            )
            result.test_metrics.append(
                accuracy(eval_logits[self.test_idx], labels[self.test_idx])
            )
        return result

    def train_reference(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """The original evaluate-every-epoch loop (equivalence oracle)."""
        _validate_schedule(epochs, start_epoch, eval_every=1)
        graph = self._graph
        features = graph.features
        labels = graph.labels
        store = self._store
        result = TrainingResult()
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            logits, cache = self.model.forward(
                graph, features, store=store, updated=updated, training=True,
            )
            loss, grad_logits = cross_entropy_loss(
                logits[self.train_idx], labels[self.train_idx],
            )
            grad_full = np.zeros_like(logits)
            grad_full[self.train_idx] = grad_logits
            grads = self.model.backward(graph, cache, grad_full)
            self._optimizer.step(self.model.params, grads)

            eval_logits, _ = self.model.forward(
                graph, features, store=store,
                updated=np.array([], dtype=np.int64), training=False,
            )
            result.losses.append(loss)
            result.eval_epochs.append(epoch)
            result.train_metrics.append(
                accuracy(eval_logits[self.train_idx], labels[self.train_idx])
            )
            result.test_metrics.append(
                accuracy(eval_logits[self.test_idx], labels[self.test_idx])
            )
        return result


class LinkPredictionTrainer:
    """Link prediction with a dot-product decoder and negative sampling."""

    def __init__(
        self,
        graph: Graph,
        hidden_dim: int = 64,
        embedding_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = 0.2,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None:
            raise TrainingError("link task needs vertex features")
        self._graph = graph
        self._rng = np.random.default_rng(random_state)
        dims: List[Tuple[int, int]] = []
        d_in = graph.feature_dim
        for layer in range(num_layers):
            d_out = embedding_dim if layer == num_layers - 1 else hidden_dim
            dims.append((d_in, d_out))
            d_in = d_out
        self.model = GCN(dims, dropout=dropout, random_state=random_state,
                         analog_noise_sigma=analog_noise_sigma)
        self._optimizer = Adam(learning_rate=learning_rate)

        edges = graph.edge_list()
        if edges.shape[0] < 4:
            raise TrainingError("graph too small for a link split")
        train_rows, test_rows = _split_indices(
            edges.shape[0], test_fraction, self._rng,
        )
        self.train_pos = edges[train_rows]
        self.test_pos = edges[test_rows]
        self.test_neg = self._sample_negatives(self.test_pos.shape[0])
        self._store = StaleFeatureStore(self.model.num_layers)

    def _sample_negatives(self, count: int) -> np.ndarray:
        n = self._graph.num_vertices
        src = self._rng.integers(0, n, size=2 * count + 8)
        dst = self._rng.integers(0, n, size=2 * count + 8)
        keep = src != dst
        return np.stack([src[keep], dst[keep]], axis=1)[:count]

    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` offsets the plan's epoch phase (see the node
        trainer's docstring); ``eval_every`` strides metric evaluation
        exactly as there.
        """
        _validate_schedule(epochs, start_epoch, eval_every)
        if self.model.analog_noise_sigma > 0:
            eval_every = 1  # eval forwards draw RNG; keep the stream fixed
        reuse_embeddings = (
            self.model.dropout == 0.0
            and self.model.analog_noise_sigma == 0.0
        )
        graph = self._graph
        features = graph.features
        store = self._store
        result = TrainingResult()
        last_epoch = start_epoch + epochs - 1
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            embeddings, cache = self.model.forward(
                graph, features, store=store, updated=updated, training=True,
            )
            neg = self._sample_negatives(self.train_pos.shape[0])
            loss, grad_emb = link_bce_loss(embeddings, self.train_pos, neg)
            grads = self.model.backward(graph, cache, grad_emb)
            self._optimizer.step(self.model.params, grads)

            result.losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_embeddings:
                eval_emb = embeddings
            else:
                eval_emb, _ = self.model.forward(
                    graph, features, store=store, updated=_NO_UPDATES,
                    training=False,
                )
            result.eval_epochs.append(epoch)
            result.train_metrics.append(
                link_accuracy(eval_emb, self.train_pos, neg)
            )
            result.test_metrics.append(
                link_accuracy(eval_emb, self.test_pos, self.test_neg)
            )
        return result

    def train_reference(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """The original evaluate-every-epoch loop (equivalence oracle)."""
        _validate_schedule(epochs, start_epoch, eval_every=1)
        graph = self._graph
        features = graph.features
        store = self._store
        result = TrainingResult()
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            embeddings, cache = self.model.forward(
                graph, features, store=store, updated=updated, training=True,
            )
            neg = self._sample_negatives(self.train_pos.shape[0])
            loss, grad_emb = link_bce_loss(embeddings, self.train_pos, neg)
            grads = self.model.backward(graph, cache, grad_emb)
            self._optimizer.step(self.model.params, grads)

            eval_emb, _ = self.model.forward(
                graph, features, store=store,
                updated=np.array([], dtype=np.int64), training=False,
            )
            result.losses.append(loss)
            result.eval_epochs.append(epoch)
            result.train_metrics.append(
                link_accuracy(eval_emb, self.train_pos, neg)
            )
            result.test_metrics.append(
                link_accuracy(eval_emb, self.test_pos, self.test_neg)
            )
        return result


def make_trainer(
    graph: Graph,
    task: str,
    random_state: int = 0,
    **kwargs,
):
    """Factory: ``"node"`` or ``"link"`` oracle trainer for a graph."""
    if task == "node":
        return NodeClassificationTrainer(
            graph, random_state=random_state, **kwargs,
        )
    if task == "link":
        return LinkPredictionTrainer(
            graph, random_state=random_state, **kwargs,
        )
    raise TrainingError(f"unknown task {task!r}")
