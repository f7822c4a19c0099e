"""Single-run GCN trainers with selective vertex updating (accuracy substrate).

Two trainers cover the paper's two task families (Table III): node
classification (proteins/arxiv/products/Cora) and link prediction
(ddi/collab/ppa).  Both support an :class:`~repro.mapping.selective.UpdatePlan`
so the ISU accuracy experiments (Table V, Fig. 16a/b) run the exact
staleness semantics the hardware implements: important vertices refresh on
crossbars every epoch, the rest every ``minor_period`` epochs.

Each trainer is a fleet of one on the replica-batched engine
(:mod:`repro.gcn.batched`), which owns the only training loop.  ``model``
is the run's :class:`~repro.gcn.model.GCN`, holding the trained weights
after every :meth:`train` call; model, optimizer, stale-store and RNG state
carry over between calls, so the co-simulator can train one epoch at a
time.  ``train`` skips the eval forward when it would reproduce the
training output (no dropout, no analog noise) and strides metric
evaluation with ``eval_every``; the evaluate-every-epoch serial loops it
matches bit for bit are kept as oracles in ``tests/oracles/trainers.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TrainingError
from repro.gcn.batched import (
    LINK_TEST_FRACTION,
    NODE_TEST_FRACTION,
    BatchedLinkTrainer,
    BatchedNodeTrainer,
    TrainingResult,
)
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan


class NodeClassificationTrainer:
    """Full-batch node-classification training with optional staleness."""

    def __init__(
        self,
        graph: Graph,
        hidden_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = NODE_TEST_FRACTION,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        self._engine = BatchedNodeTrainer(
            graph, [random_state], hidden_dim=hidden_dim,
            num_layers=num_layers, learning_rate=learning_rate,
            dropout=dropout, test_fraction=test_fraction,
            analog_noise_sigma=analog_noise_sigma,
        )
        self.model = self._engine.models[0]
        self.train_idx = self._engine.train_idx[0]
        self.test_idx = self._engine.test_idx[0]

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
        (the final epoch is always evaluated; analog noise forces every
        epoch, since eval forwards draw from the model's RNG stream);
        losses are recorded every epoch regardless.
        """
        [result] = self._engine.train(
            epochs, [update_plan], start_epoch=start_epoch,
            eval_every=eval_every,
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
        test_fraction: float = LINK_TEST_FRACTION,
        random_state: int = 0,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        self._engine = BatchedLinkTrainer(
            graph, [random_state], hidden_dim=hidden_dim,
            embedding_dim=embedding_dim, num_layers=num_layers,
            learning_rate=learning_rate, dropout=dropout,
            test_fraction=test_fraction,
            analog_noise_sigma=analog_noise_sigma,
        )
        self.model = self._engine.models[0]
        self.train_pos = self._engine.train_pos[0]
        self.test_pos = self._engine.test_pos[0]
        self.test_neg = self._engine.test_neg[0]

    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` and ``eval_every`` work as in
        :meth:`NodeClassificationTrainer.train`.
        """
        [result] = self._engine.train(
            epochs, [update_plan], start_epoch=start_epoch,
            eval_every=eval_every,
        )
        return result


def make_trainer(
    graph: Graph,
    task: str,
    random_state: int = 0,
    **kwargs,
):
    """Factory: ``"node"`` or ``"link"`` trainer for a graph."""
    if task == "node":
        return NodeClassificationTrainer(
            graph, random_state=random_state, **kwargs,
        )
    if task == "link":
        return LinkPredictionTrainer(
            graph, random_state=random_state, **kwargs,
        )
    raise TrainingError(f"unknown task {task!r}")
