"""Softmax and accuracy for node classification, and the sigmoid and
fused edge-gradient scatter the link-prediction loss is built from.

The losses themselves live with the training loop:
:mod:`repro.gcn.batched` computes the cross-entropy and the link loss
for a whole ``[R, ...]`` fleet.  The serial cross-entropy is kept as an
oracle in ``tests/oracles/gnn.py``, and the serial link loss, whose
sequential ``np.add.at`` scatter :class:`EdgeScatter` reproduces bit for
bit, in ``tests/oracles/link_losses.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import TrainingError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilisation."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    if logits.shape[0] == 0:
        raise TrainingError("empty batch")
    return float((logits.argmax(axis=1) == labels).mean())


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, returned in float64.

    Branch-free form of the classic two-sided evaluation: with
    ``z = exp(-|x|)`` the positive side is ``1 / (1 + z)`` and the
    negative side ``z / (1 + z)`` — the same per-element operations the
    masked implementation performs, so the result is bit-identical, but
    without the boolean gather/scatter copies (about 2x faster on the
    link trainer's score vectors).
    """
    x = np.asarray(x)
    neg = x < 0
    ax = np.where(neg, x, -x)  # -|x| (maps +0.0 to -0.0; exp is exact there)
    z = np.exp(ax, out=ax) if ax.dtype.kind == "f" else np.exp(ax)
    denom = z + 1.0
    num = np.where(neg, z, 1.0)
    out = np.divide(num, denom, out=num)
    if out.dtype != np.float64:
        out = out.astype(np.float64)
    return out


def edge_scatter_plan(
    rows: np.ndarray,
    cols: np.ndarray,
    num_vertices: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR pattern of the fused edge-gradient scatter.

    ``rows``/``cols`` are the concatenated scatter targets/sources in
    the exact order the reference issues its ``np.add.at`` calls; the
    stable sort keeps that order *within* each target row, so summing a
    row's entries left-to-right reproduces the reference accumulation
    order bit-for-bit (duplicate edges included).  The plan depends only
    on the edge pattern, so callers training several replicas on the
    same edges may build it once per epoch and apply it per replica.
    """
    # The stable argsort is radix-based for ints, so narrowing the key
    # dtype speeds it up ~6x; the permutation it returns is unchanged.
    if num_vertices <= np.iinfo(np.int16).max:
        sort_keys = rows.astype(np.int16)
    elif num_vertices <= np.iinfo(np.int32).max:
        sort_keys = rows.astype(np.int32)
    else:
        sort_keys = rows
    order = np.argsort(sort_keys, kind="stable")
    counts = np.bincount(rows, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return order, indptr, cols[order].astype(np.int32)


class EdgeScatter:
    """A fused float64 edge-gradient scatter with a reusable sparse pattern.

    The plan (:func:`edge_scatter_plan`) becomes one scipy CSR matrix
    whose data buffer is refilled per call, so applying the same edge
    pattern with several coefficient vectors — the replica-batched link
    trainer applies one epoch's plan once per replica — reuses the
    pattern, the sorted data buffer and the float64 embedding buffer.
    Each row's entries are summed in storage order, so ``apply`` is
    bit-identical to the sequential ``np.add.at`` scatter.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        num_vertices: int,
    ) -> None:
        self.order, self.indptr, self.sorted_cols = edge_scatter_plan(
            rows, cols, num_vertices,
        )
        self._mat = sparse.csr_matrix(
            (
                np.empty(self.order.shape[0], dtype=np.float64),
                self.sorted_cols,
                self.indptr,
            ),
            shape=(num_vertices, num_vertices),
        )

    def apply(
        self,
        data: np.ndarray,
        embeddings: np.ndarray,
        emb64_buf: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``grad[v] = sum_i data[i] * embeddings[cols[i]]`` per plan row.

        ``emb64_buf`` is an optional preallocated float64 ``[V, d]``
        scratch the embeddings are cast into (saves the allocation).
        """
        np.take(data, self.order, out=self._mat.data)
        if emb64_buf is None:
            emb = np.asarray(embeddings, dtype=np.float64)
        else:
            np.copyto(emb64_buf, embeddings)
            emb = emb64_buf
        return self._mat @ emb
