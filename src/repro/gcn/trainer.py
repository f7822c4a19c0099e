"""Single-run GCN trainers with selective vertex updating (accuracy substrate).

Two trainers cover the paper's two task families (Table III): node
classification (proteins/arxiv/products/Cora) and link prediction
(ddi/collab/ppa).  Both support an :class:`~repro.mapping.selective.UpdatePlan`
so the ISU accuracy experiments (Table V, Fig. 16a/b) run the exact
staleness semantics the hardware implements: important vertices refresh on
crossbars every epoch, the rest every ``minor_period`` epochs.

Each trainer is a fleet of one on the replica-batched engine
(:mod:`repro.gcn.batched`), which owns the only training loop and its one
configuration.  ``model`` is the run's :class:`~repro.gcn.model.GCN`,
holding the trained weights after every :meth:`train` call; model,
optimizer, stale-store and RNG state carry over between calls, so the
co-simulator can train one epoch at a time.  ``train`` evaluates every
epoch, reusing the training output as the eval forward it reproduces;
the serial loops it matches bit for bit are kept as oracles in
``tests/oracles/trainers.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TrainingError
from repro.gcn.batched import (
    HIDDEN_DIM,
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
        hidden_dim: int = HIDDEN_DIM,
        random_state: int = 0,
    ) -> None:
        self._engine = BatchedNodeTrainer(
            graph, [random_state], hidden_dim=hidden_dim,
        )
        self.model = self._engine.models[0]
        self.train_idx = self._engine.train_idx[0]
        self.test_idx = self._engine.test_idx[0]

    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """Run training; with a plan, apply its per-epoch update schedule.

        ``start_epoch`` offsets the plan's epoch phase so callers driving
        the loop one epoch at a time (the co-simulator) keep the ISU
        minor-refresh cadence.
        """
        [result] = self._engine.train(
            epochs, [update_plan], start_epoch=start_epoch,
        )
        return result


class LinkPredictionTrainer:
    """Link prediction with a dot-product decoder and negative sampling."""

    def __init__(self, graph: Graph, random_state: int = 0) -> None:
        self._engine = BatchedLinkTrainer(graph, [random_state])
        self.model = self._engine.models[0]
        self.train_pos = self._engine.train_pos[0]
        self.test_pos = self._engine.test_pos[0]
        self.test_neg = self._engine.test_neg[0]

    def train(
        self,
        epochs: int = 60,
        update_plan: Optional[UpdatePlan] = None,
        start_epoch: int = 0,
    ) -> TrainingResult:
        """Run training; arguments as
        :meth:`NodeClassificationTrainer.train`."""
        [result] = self._engine.train(
            epochs, [update_plan], start_epoch=start_epoch,
        )
        return result


def make_trainer(graph: Graph, task: str, random_state: int = 0):
    """Factory: ``"node"`` or ``"link"`` trainer for a graph."""
    if task == "node":
        return NodeClassificationTrainer(graph, random_state=random_state)
    if task == "link":
        return LinkPredictionTrainer(graph, random_state=random_state)
    raise TrainingError(f"unknown task {task!r}")
