"""Losses and metrics, with finite-difference gradient checks.

The serial cross-entropy lives in ``tests/oracles/gnn.py`` and the link
loss and metric in ``tests/oracles/link_losses.py`` (the serial
trainers' oracles); production link training uses
:class:`~repro.gcn.losses.EdgeScatter`, checked here bitwise against the
sequential ``np.add.at`` scatter.
"""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.losses import (
    EdgeScatter,
    accuracy,
    sigmoid,
    softmax,
)
from tests.oracles.gnn import cross_entropy_loss
from tests.oracles.link_losses import (
    link_accuracy,
    link_bce_loss,
    link_bce_loss_reference,
    link_logits,
)


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(0).normal(size=(5, 4)) * 50
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)
    assert np.all(probs >= 0)


def test_cross_entropy_perfect_prediction():
    logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
    labels = np.array([0, 1])
    loss, grad = cross_entropy_loss(logits, labels)
    assert loss < 1e-6
    np.testing.assert_allclose(grad, 0.0, atol=1e-6)


def test_cross_entropy_gradient_finite_difference():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    _, grad = cross_entropy_loss(logits, labels)
    eps = 1e-5
    for i in range(4):
        for j in range(3):
            bumped = logits.copy()
            bumped[i, j] += eps
            up, _ = cross_entropy_loss(bumped, labels)
            bumped[i, j] -= 2 * eps
            down, _ = cross_entropy_loss(bumped, labels)
            numeric = (up - down) / (2 * eps)
            assert grad[i, j] == pytest.approx(numeric, abs=1e-4)


def test_cross_entropy_validation():
    with pytest.raises(TrainingError):
        cross_entropy_loss(np.zeros((2, 3)), np.array([0, 5]))
    with pytest.raises(TrainingError):
        cross_entropy_loss(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_accuracy():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
    with pytest.raises(TrainingError):
        accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_sigmoid_stability():
    x = np.array([-1000.0, 0.0, 1000.0])
    out = sigmoid(x)
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-9)


def test_link_logits():
    emb = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    edges = np.array([[0, 2], [1, 2]])
    np.testing.assert_allclose(link_logits(emb, edges), [3.0, 2.0])
    with pytest.raises(TrainingError):
        link_logits(emb, np.array([0, 1]))


def test_link_bce_gradient_finite_difference():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(5, 3)).astype(np.float64)
    pos = np.array([[0, 1], [2, 3]])
    neg = np.array([[0, 4], [1, 3]])
    _, grad = link_bce_loss(emb, pos, neg)
    eps = 1e-5
    for i in range(5):
        for j in range(3):
            bumped = emb.copy()
            bumped[i, j] += eps
            up, _ = link_bce_loss(bumped, pos, neg)
            bumped[i, j] -= 2 * eps
            down, _ = link_bce_loss(bumped, pos, neg)
            numeric = (up - down) / (2 * eps)
            assert grad[i, j] == pytest.approx(numeric, abs=1e-3)


def test_link_bce_validation():
    with pytest.raises(TrainingError):
        link_bce_loss(np.zeros((3, 2)), np.zeros((0, 2)), np.zeros((0, 2)))


def test_link_accuracy_perfect():
    emb = np.array([[10.0, 0.0], [10.0, 0.0], [-10.0, 0.0]])
    pos = np.array([[0, 1]])   # score 100 > 0
    neg = np.array([[0, 2]])   # score -100 <= 0
    assert link_accuracy(emb, pos, neg) == 1.0
    with pytest.raises(TrainingError):
        link_accuracy(emb, np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int))


def _random_link_case(seed):
    """Float32 embeddings, positive and negative edge sets with duplicate
    and reversed edges, and the link loss's four gradient scatters
    ``(targets, sources, coefficients)`` in the order it issues them."""
    rng = np.random.default_rng(seed)
    num_vertices = int(rng.integers(2, 40))
    dim = int(rng.integers(1, 9))
    embeddings = rng.normal(size=(num_vertices, dim)).astype(np.float32)

    def edges(count):
        base = rng.integers(0, num_vertices, size=(count, 2))
        picks = rng.integers(0, count, size=count // 2 + 1)
        return np.concatenate([base, base[picks], base[picks, ::-1]])

    pos = edges(int(rng.integers(1, 50)))
    neg = edges(int(rng.integers(1, 50)))
    parts = []
    for edge_set, coeff in (
        (pos, rng.random(pos.shape[0]) - 1.0),
        (neg, rng.random(neg.shape[0])),
    ):
        parts.append((edge_set[:, 0], edge_set[:, 1], coeff))
        parts.append((edge_set[:, 1], edge_set[:, 0], coeff))
    return embeddings, pos, neg, parts


def test_edge_scatter_bitwise_equals_add_at():
    for seed in range(100):
        emb, _, _, parts = _random_link_case(seed)
        expected = np.zeros(emb.shape, dtype=np.float64)
        for targets, sources, coeff in parts:
            np.add.at(expected, targets, coeff[:, None] * emb[sources])
        rows, cols, data = (np.concatenate(col) for col in zip(*parts))
        scatter = EdgeScatter(rows, cols, emb.shape[0])
        assert np.array_equal(scatter.apply(data, emb), expected)
        buf = np.empty(emb.shape, dtype=np.float64)
        assert np.array_equal(scatter.apply(data, emb, emb64_buf=buf), expected)


def test_fused_link_loss_bitwise_equals_reference():
    for seed in range(100):
        emb, pos, neg, _ = _random_link_case(seed)
        loss, grad = link_bce_loss(emb, pos, neg)
        ref_loss, ref_grad = link_bce_loss_reference(emb, pos, neg)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
