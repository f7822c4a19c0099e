"""Oracles for the node-classification and link-prediction trainers.

The serial training loops as they were before the replica-batched engine
(:mod:`repro.gcn.batched`) became the only trainer, at the one
configuration every run trains: two GCN layers 64 wide (64-wide link
embeddings), a 30% (node) or 20% (link) test split and
:class:`~repro.gcn.optim.Adam`.  ``train`` reuses the training output as
the eval output when analog noise is off; ``train_reference`` runs the
eval forward every epoch.
:class:`repro.gcn.trainer.NodeClassificationTrainer` and
:class:`repro.gcn.trainer.LinkPredictionTrainer` (fleets of one) and every
replica of :func:`repro.gcn.batched.train_replicas` must reproduce them bit
for bit: losses, metrics, final weights and RNG stream positions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TrainingError
from repro.gcn.batched import (
    TrainingResult,
    _split_indices,
    _validate_schedule,
)
from repro.gcn.losses import accuracy
from repro.gcn.model import GCN
from repro.gcn.optim import Adam
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
from tests.oracles.gnn import (
    StaleFeatureStore,
    cross_entropy_loss,
    gcn_backward_reference,
    gcn_forward_reference,
)
from tests.oracles.link_losses import link_accuracy, link_bce_loss

# Shared empty update set for eval forwards (never mutated).
_NO_UPDATES = np.array([], dtype=np.int64)


class NodeClassificationTrainer:
    """Full-batch node-classification training with optional staleness."""

    def __init__(
        self,
        graph: Graph,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None or graph.labels is None:
            raise TrainingError("node task needs features and labels")
        self._graph = graph
        self._rng = np.random.default_rng(random_state)
        dims = [(graph.feature_dim, 64), (64, graph.num_classes)]
        self.model = GCN(dims, random_state=random_state,
                         analog_noise_sigma=analog_noise_sigma)
        self._optimizer = Adam()
        self.train_idx, self.test_idx = _split_indices(
            graph.num_vertices, 0.3, self._rng,
        )
        self._store = StaleFeatureStore(self.model.num_layers)
        self._grad_buffer: Optional[np.ndarray] = None

    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` offsets the plan's epoch phase so callers driving
        the loop one epoch at a time (the co-simulator) keep the ISU
        minor-refresh cadence.  Without analog noise the training logits
        are the eval logits: eval runs with an empty update set, so it
        reads the resident (stale) combination outputs the training
        forward just wrote.
        """
        return self._loop(
            epochs, update_plan, start_epoch,
            reuse_logits=self.model.analog_noise_sigma == 0.0,
        )

    def train_reference(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """The original loop, with an eval forward every epoch."""
        return self._loop(epochs, update_plan, start_epoch, reuse_logits=False)

    def _loop(
        self,
        epochs: int,
        update_plan: Optional[UpdatePlan],
        start_epoch: int,
        reuse_logits: bool,
    ) -> TrainingResult:
        _validate_schedule(epochs, start_epoch)
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
            logits, cache = gcn_forward_reference(
                self.model, graph, features, store=store, updated=updated,
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
            grads = gcn_backward_reference(
                self.model, graph, cache, grad_full,
            )
            self._optimizer.step(self.model.params, grads)

            result.losses.append(loss)
            if reuse_logits:
                eval_logits = logits
            else:
                eval_logits, _ = gcn_forward_reference(
                    self.model, graph, features, store=store,
                    updated=_NO_UPDATES,
                )
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
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None:
            raise TrainingError("link task needs vertex features")
        self._graph = graph
        self._rng = np.random.default_rng(random_state)
        dims = [(graph.feature_dim, 64), (64, 64)]
        self.model = GCN(dims, random_state=random_state,
                         analog_noise_sigma=analog_noise_sigma)
        self._optimizer = Adam()

        edges = graph.edge_list()
        if edges.shape[0] < 4:
            raise TrainingError("graph too small for a link split")
        train_rows, test_rows = _split_indices(
            edges.shape[0], 0.2, self._rng,
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
    ) -> TrainingResult:
        """Run training; arguments and the eval reuse are the node
        trainer's."""
        return self._loop(
            epochs, update_plan, start_epoch,
            reuse_embeddings=self.model.analog_noise_sigma == 0.0,
        )

    def train_reference(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """The original loop, with an eval forward every epoch."""
        return self._loop(
            epochs, update_plan, start_epoch, reuse_embeddings=False,
        )

    def _loop(
        self,
        epochs: int,
        update_plan: Optional[UpdatePlan],
        start_epoch: int,
        reuse_embeddings: bool,
    ) -> TrainingResult:
        _validate_schedule(epochs, start_epoch)
        graph = self._graph
        features = graph.features
        store = self._store
        result = TrainingResult()
        for epoch in range(start_epoch, start_epoch + epochs):
            updated = (
                None if update_plan is None
                else update_plan.vertices_updated_at(epoch)
            )
            embeddings, cache = gcn_forward_reference(
                self.model, graph, features, store=store, updated=updated,
            )
            neg = self._sample_negatives(self.train_pos.shape[0])
            loss, grad_emb = link_bce_loss(embeddings, self.train_pos, neg)
            grads = gcn_backward_reference(
                self.model, graph, cache, grad_emb,
            )
            self._optimizer.step(self.model.params, grads)

            result.losses.append(loss)
            if reuse_embeddings:
                eval_emb = embeddings
            else:
                eval_emb, _ = gcn_forward_reference(
                    self.model, graph, features, store=store,
                    updated=_NO_UPDATES,
                )
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
    analog_noise_sigma: float = 0.0,
):
    """Factory: ``"node"`` or ``"link"`` oracle trainer for a graph."""
    if task == "node":
        return NodeClassificationTrainer(
            graph, random_state, analog_noise_sigma,
        )
    if task == "link":
        return LinkPredictionTrainer(graph, random_state, analog_noise_sigma)
    raise TrainingError(f"unknown task {task!r}")
