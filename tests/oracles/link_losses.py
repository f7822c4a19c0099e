"""Oracles for the link-prediction loss and metric.

The serial trainers' link loss: ``link_bce_loss`` fuses the four
sequential ``np.add.at`` gradient scatters of ``link_bce_loss_reference``
into one stably ordered sparse product through
:class:`repro.gcn.losses.EdgeScatter` (the replica-batched link trainer's
scatter), bit for bit.  The serial trainer oracles in
:mod:`tests.oracles.trainers` train on these.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.losses import EdgeScatter, sigmoid


def link_logits(
    embeddings: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """Dot-product decoder scores for an ``(m, 2)`` edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise TrainingError("edges must be (m, 2)")
    return np.einsum(
        "ij,ij->i", embeddings[edges[:, 0]], embeddings[edges[:, 1]],
    )


def _bce_terms(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> Tuple[float, int, list, list, list]:
    """Shared loss/coefficient computation for the fused BCE paths."""
    total = 0.0
    count = 0
    rows_parts: list = []
    cols_parts: list = []
    data_parts: list = []
    for edges, label in ((pos_edges, 1.0), (neg_edges, 0.0)):
        if edges.size == 0:
            continue
        scores = link_logits(embeddings, edges)
        probs = sigmoid(scores)
        total += float(-(
            label * np.log(probs + 1e-12)
            + (1 - label) * np.log(1 - probs + 1e-12)
        ).sum())
        count += edges.shape[0]
        coeff = probs - label
        rows_parts += [edges[:, 0], edges[:, 1]]
        cols_parts += [edges[:, 1], edges[:, 0]]
        data_parts += [coeff, coeff]
    return total, count, rows_parts, cols_parts, data_parts


def link_bce_loss(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Binary cross-entropy over positive/negative edges.

    Returns the loss and its gradient w.r.t. the vertex embeddings.
    Fast path: the reference's four sequential ``np.add.at`` scatters
    are fused into one stably-ordered sparse SpMM (:class:`EdgeScatter`),
    which preserves the per-target accumulation order and is therefore
    bit-identical to ``link_bce_loss_reference``.
    """
    pos_edges = np.asarray(pos_edges, dtype=np.int64)
    neg_edges = np.asarray(neg_edges, dtype=np.int64)
    if pos_edges.size == 0 and neg_edges.size == 0:
        raise TrainingError("need at least one edge")
    total, count, rows_parts, cols_parts, data_parts = _bce_terms(
        embeddings, pos_edges, neg_edges,
    )
    scatter = EdgeScatter(
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        embeddings.shape[0],
    )
    grad = scatter.apply(np.concatenate(data_parts), embeddings)
    return total / count, (grad / count).astype(np.float32)


def link_bce_loss_reference(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Reference loop for :func:`link_bce_loss` (sequential scatters)."""
    pos_edges = np.asarray(pos_edges, dtype=np.int64)
    neg_edges = np.asarray(neg_edges, dtype=np.int64)
    if pos_edges.size == 0 and neg_edges.size == 0:
        raise TrainingError("need at least one edge")
    grad = np.zeros_like(embeddings, dtype=np.float64)
    total = 0.0
    count = 0
    for edges, label in ((pos_edges, 1.0), (neg_edges, 0.0)):
        if edges.size == 0:
            continue
        scores = link_logits(embeddings, edges)
        probs = sigmoid(scores)
        total += float(-(
            label * np.log(probs + 1e-12)
            + (1 - label) * np.log(1 - probs + 1e-12)
        ).sum())
        count += edges.shape[0]
        coeff = (probs - label)[:, None]
        np.add.at(grad, edges[:, 0], coeff * embeddings[edges[:, 1]])
        np.add.at(grad, edges[:, 1], coeff * embeddings[edges[:, 0]])
    return total / count, (grad / count).astype(np.float32)


def link_accuracy(
    embeddings: np.ndarray,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> float:
    """Balanced accuracy of the dot-product decoder at threshold 0."""
    pos = link_logits(embeddings, pos_edges) > 0 if pos_edges.size else np.array([])
    neg = link_logits(embeddings, neg_edges) <= 0 if neg_edges.size else np.array([])
    correct = float(pos.sum() + neg.sum())
    total = pos.size + neg.size
    if total == 0:
        raise TrainingError("need at least one evaluation edge")
    return correct / total
