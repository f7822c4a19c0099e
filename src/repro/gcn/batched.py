"""Replica-batched GNN training: the one node/link and split-harness loop.

The ablation/table experiments (tab05, fig16, abl-model-family,
abl-weight-staleness, ...) train fleets of *small* models that differ
only in seed, staleness schedule, or one hyperparameter.  This module
stacks R such runs into one extra leading tensor dimension — weights
``[R, in, out]``, activations ``[R, V, d]`` — and advances all R
replicas with one batched forward/backward/Adam step per epoch.  A
single run is a fleet of one: :class:`~repro.gcn.trainer.NodeClassificationTrainer`
and :class:`~repro.gcn.trainer.LinkPredictionTrainer` wrap an R=1 engine,
and :func:`train_split_replicas` (the ablation split harness) trains
GCN and GraphSAGE fleets of any size.

**Bit-identity contract.**  Every replica reproduces the serial loops
kept as oracles in ``tests/oracles/trainers.py`` and
``tests/oracles/split_harness.py`` bit-for-bit: losses, metrics, final
weights and model-stream RNG positions.  The building blocks this rests
on, each covered by ``tests/gcn/test_batched_equivalence.py``:

* stacked ``np.matmul`` equals per-slice 2-D matmul (including the
  broadcast ``[V, d] @ [R, d, o]`` and transposed-operand forms);
* the SpMM batches by column-stacking ``[R, V, d]`` into ``[V, R*d]``
  (``normalized_adjacency_matmul``, ``mean_adjacency_matmul`` and
  ``adjacency_matmul`` are column-independent);
* scalar loss reductions extract each replica's contiguous row before
  reducing (2-D axis reductions use different pairwise-summation
  blocking than the serial 1-D reduce, so ``picked[r].mean()`` matches
  where ``picked.mean(axis=-1)[r]`` does not);
* each replica's model is built with the replica's seed, so its weight
  init and its ``_rng`` (the model stream: dropout masks, analog noise)
  are the serial ones; the trainer stream (split + negative sampling)
  is ``np.random.default_rng(seed)``; both are drawn in the serial
  order, so stream positions coincide after every ``train`` call;
* staleness batches via a per-replica refresh mask: plan-less replicas
  carry an all-ones mask row, and multiplying a float32 gradient by 1.0
  is bitwise the identity, so mixed vanilla/ISU groups stay eligible.

Groups must agree on everything *except* seed, update plan, and (for the
split path) gradient delay: same graph object, task, dims, epochs,
learning rate, dropout, noise sigma, and eval cadence.  Model, Adam,
stale-store and RNG state persist across ``train`` calls, so a caller
may drive an engine one epoch at a time (the co-simulator does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.gcn.losses import (
    EdgeScatter,
    sigmoid,
    softmax,
)
from repro.gcn.model import GCN
from repro.gcn.optim import Adam
from repro.gcn.sage import GraphSAGE
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
from repro.perf import profile

NODE_TEST_FRACTION = 0.3  # NodeClassificationTrainer default
LINK_TEST_FRACTION = 0.2  # LinkPredictionTrainer default


@dataclass
class TrainingResult:
    """Loss/metric history of one training run.

    ``losses`` has one entry per epoch; the metric lists have one entry
    per *evaluated* epoch (``eval_epochs`` records which — every epoch
    under the default ``eval_every=1`` cadence).
    """

    losses: List[float] = field(default_factory=list)
    train_metrics: List[float] = field(default_factory=list)
    test_metrics: List[float] = field(default_factory=list)
    eval_epochs: List[int] = field(default_factory=list)

    @property
    def final_test_metric(self) -> float:
        """Metric at the last epoch."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return self.test_metrics[-1]

    @property
    def best_test_metric(self) -> float:
        """Best evaluated-epoch metric (what the paper tables report)."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return max(self.test_metrics)


def _split_indices(
    count: int,
    test_fraction: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(count)
    cut = int(round(count * (1.0 - test_fraction)))
    if cut == 0 or cut == count:
        raise TrainingError("split leaves an empty train or test set")
    return np.sort(order[:cut]), np.sort(order[cut:])


def _validate_schedule(epochs: int, start_epoch: int, eval_every: int) -> None:
    if epochs < 1:
        raise TrainingError("epochs must be >= 1")
    if start_epoch < 0:
        raise TrainingError("start_epoch must be >= 0")
    if eval_every < 1:
        raise TrainingError("eval_every must be >= 1")


def _layer_dims(
    d_in: int,
    hidden_dim: int,
    d_out: int,
    num_layers: int,
) -> List[Tuple[int, int]]:
    """``num_layers`` chained ``(d_in, d_out)`` pairs, ``hidden_dim``
    wide except the last layer's output."""
    dims: List[Tuple[int, int]] = []
    for layer in range(num_layers):
        width = d_out if layer == num_layers - 1 else hidden_dim
        dims.append((d_in, width))
        d_in = width
    return dims


@dataclass(frozen=True, eq=False)
class ReplicaSpec:
    """One training run, described for replica batching.

    Field defaults mirror the single-run trainers'.  ``test_fraction=None``
    resolves to the task default (0.3 node / 0.2 link).  Replicas group
    together when they agree on every field except ``random_state`` and
    ``update_plan``.
    """

    graph: Graph
    task: str
    epochs: int
    random_state: int = 0
    update_plan: Optional[UpdatePlan] = None
    hidden_dim: int = 64
    embedding_dim: int = 64
    num_layers: int = 2
    learning_rate: float = 0.01
    dropout: float = 0.0
    test_fraction: Optional[float] = None
    analog_noise_sigma: float = 0.0
    start_epoch: int = 0
    eval_every: int = 1

    def resolved_test_fraction(self) -> float:
        """The task-default split fraction unless overridden."""
        if self.test_fraction is not None:
            return self.test_fraction
        if self.task == "link":
            return LINK_TEST_FRACTION
        return NODE_TEST_FRACTION

    def group_key(self) -> Tuple:
        """Replicas sharing this key may train in one batched group."""
        return (
            id(self.graph), self.task, self.epochs, self.hidden_dim,
            self.embedding_dim, self.num_layers, self.learning_rate,
            self.dropout, self.resolved_test_fraction(),
            self.analog_noise_sigma, self.start_epoch, self.eval_every,
        )


# ----------------------------------------------------------------------
# Stacked models: [R, in, out] weights, [R, V, d] activations
# ----------------------------------------------------------------------
def _stacked_adjacency(
    spmm: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Batched ``spmm(x[r])`` by column-stacking the replica blocks.

    ``spmm`` is one of the graph's column-independent SpMMs
    (``normalized_adjacency_matmul``, ``mean_adjacency_matmul``,
    ``adjacency_matmul``), so each replica's columns come out as the
    serial call's.
    """
    r, v, d = x.shape
    flat = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(v, r * d)
    out = spmm(flat)
    return np.ascontiguousarray(out.reshape(v, r, d).transpose(1, 0, 2))


def _weight_grad(inputs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Batched ``inputs[r].T @ grad[r]``; 2-D ``inputs`` (the shared
    features) broadcast over R."""
    if inputs.ndim == 2:
        return np.matmul(inputs.T, grad)
    return np.matmul(inputs.transpose(0, 2, 1), grad)


class _BatchedStore:
    """Stacked :class:`~repro.gcn.model.StaleFeatureStore`: one
    ``[R, V, d]`` buffer per layer, refreshed through a per-replica row
    mask (``masks=None`` = full refresh, as is every first refresh)."""

    def __init__(self, num_layers: int) -> None:
        self._buffers: List[Optional[np.ndarray]] = [None] * num_layers

    def refresh(
        self,
        layer: int,
        values: np.ndarray,
        masks: Optional[np.ndarray],
    ) -> None:
        buffer = self._buffers[layer]
        if buffer is None or masks is None:
            if values.dtype == np.float32 and values.flags["C_CONTIGUOUS"]:
                # Full refreshes adopt the array: ``values`` is always a
                # fresh activation the caller never writes, and a later
                # partial refresh only writes it after the epoch that
                # produced it is done, so skipping the [R, V, d] copy
                # leaves the stored bits unchanged.
                self._buffers[layer] = values
            else:
                self._buffers[layer] = np.array(values, dtype=np.float32)
            return
        np.copyto(buffer, values, where=masks[:, :, None])

    def read(self, layer: int) -> np.ndarray:
        buffer = self._buffers[layer]
        if buffer is None:
            raise TrainingError(f"layer {layer} buffer never refreshed")
        return buffer


class _StackedModel:
    """R same-family models with equal hyperparameters advanced as one
    ``[R, ...]`` model.

    Subclasses mirror one family's forward/backward operation for
    operation; per-replica randomness (dropout, analog noise) draws from
    each replica's own ``model`` stream in the serial order.
    """

    def __init__(
        self,
        first,
        params: Dict[str, np.ndarray],
        model_rngs: List[np.random.Generator],
    ) -> None:
        self._dims = first.layer_dims
        self._dropout = first.dropout
        self.params = params
        self._rngs = model_rngs
        self._dropout_scratch: Dict[Tuple[int, ...], np.ndarray] = {}

    @property
    def num_layers(self) -> int:
        return len(self._dims)

    @staticmethod
    def signature(model) -> Tuple:
        """The hyperparameters every replica of one stacked model shares."""
        return (model.layer_dims, model.dropout)

    @classmethod
    def from_models(cls, models: Sequence) -> "_StackedModel":
        """Stack initialised models of one family and one signature.

        Each model's ``_rng`` becomes its replica's model stream, already
        past the weight-init draws the model's constructor made.
        """
        first = models[0]
        key = cls.signature(first)
        if any(
            type(model) is not type(first) or cls.signature(model) != key
            for model in models
        ):
            raise TrainingError(
                "a stacked fleet needs one model family with equal dims, "
                "dropout and noise"
            )
        params = {
            name: np.stack([m.params[name] for m in models])
            for name in first.params
        }
        return cls(first, params, [m._rng for m in models])

    def write_back(self, models: Sequence) -> None:
        """Copy each replica's current weights into its model, so callers
        observing the models see the state the serial loop leaves."""
        for r, model in enumerate(models):
            model.params = {
                key: val[r].copy() for key, val in self.params.items()
            }

    def _dropout_keep(self, shape: Tuple[int, ...]) -> np.ndarray:
        """``[R, *shape]`` inverted-dropout masks, one draw per replica
        stream (a float64 scratch draw consumes the stream as a fresh
        ``rng.random(shape)`` does)."""
        scratch = self._dropout_scratch.get(shape)
        if scratch is None:
            scratch = np.empty(shape, dtype=np.float64)
            self._dropout_scratch[shape] = scratch
        keeps = []
        for rng in self._rngs:
            rng.random(out=scratch)
            keep = (scratch >= self._dropout).astype(np.float32)
            keep /= (1.0 - self._dropout)
            keeps.append(keep)
        return np.stack(keeps)


class _StackedGCN(_StackedModel):
    """R :class:`~repro.gcn.model.GCN` replicas as one model."""

    def __init__(
        self,
        first: GCN,
        params: Dict[str, np.ndarray],
        model_rngs: List[np.random.Generator],
    ) -> None:
        super().__init__(first, params, model_rngs)
        self._analog_noise = first.analog_noise_sigma

    @staticmethod
    def signature(model: GCN) -> Tuple:
        return (model.layer_dims, model.dropout, model.analog_noise_sigma)

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: Graph,
        features: np.ndarray,
        store: Optional[_BatchedStore] = None,
        masks: Optional[np.ndarray] = None,
        training: bool = False,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, dict]:
        """Batched forward; ``masks`` is the ``[R, V]`` refresh mask
        (None = every replica refreshes fully this round)."""
        if params is None:
            params = self.params
        cache: dict = {"inputs": [], "masks": [], "fresh": [], "dropout": []}
        hidden: np.ndarray = features  # [V, d0] shared, then [R, V, d]
        for i in range(self.num_layers):
            cache["inputs"].append(hidden)
            combined = np.matmul(hidden, params[f"W{i}"])
            if store is not None:
                store.refresh(i, combined, masks)
                effective = store.read(i)
                fresh = masks  # all-ones rows are bitwise no-ops downstream
            else:
                fresh = None
                effective = combined
            cache["fresh"].append(fresh)
            aggregated = _stacked_adjacency(
                graph.normalized_adjacency_matmul, effective,
            )
            if self._analog_noise > 0:
                factors = np.stack([
                    rng.normal(
                        1.0, self._analog_noise, size=aggregated.shape[1:],
                    ).astype(np.float32)
                    for rng in self._rngs
                ])
                aggregated = aggregated * factors
            if i < self.num_layers - 1:
                mask = aggregated > 0
                hidden = aggregated * mask
                cache["masks"].append(mask)
                if training and self._dropout > 0:
                    keep = self._dropout_keep(hidden.shape[1:])
                    hidden = hidden * keep
                    cache["dropout"].append(keep)
                else:
                    cache["dropout"].append(None)
            else:
                hidden = aggregated
                cache["masks"].append(None)
                cache["dropout"].append(None)
        return hidden, cache

    def backward(
        self,
        graph: Graph,
        cache: dict,
        grad_output: np.ndarray,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Batched backward mirroring :meth:`GCN.backward` per slice."""
        if params is None:
            params = self.params
        grads: Dict[str, np.ndarray] = {}
        grad = np.asarray(grad_output, dtype=np.float32)
        for i in range(self.num_layers - 1, -1, -1):
            keep = cache["dropout"][i]
            if keep is not None:
                grad = grad * keep
            mask = cache["masks"][i]
            if mask is not None:
                grad = grad * mask
            grad_combined = _stacked_adjacency(
                graph.normalized_adjacency_matmul, grad,
            )
            fresh = cache["fresh"][i]
            if fresh is not None:
                grad_combined = grad_combined * fresh[:, :, None]
            grads[f"W{i}"] = _weight_grad(cache["inputs"][i], grad_combined)
            if i > 0:
                grad = np.matmul(
                    grad_combined, params[f"W{i}"].transpose(0, 2, 1),
                )
        return grads


class _StackedSAGE(_StackedModel):
    """R :class:`~repro.gcn.sage.GraphSAGE` replicas as one model,
    mirroring ``GraphSAGE.forward``/``backward`` operation for operation.

    The store holds each layer's *input* (the aggregation source).  Layer
    0's input is the shared feature matrix, which never changes, so its
    stale rows equal its fresh rows: layer 0 aggregates the features
    directly, and it passes no gradient back through aggregation anyway.
    """

    def forward(
        self,
        graph: Graph,
        features: np.ndarray,
        store: Optional[_BatchedStore] = None,
        masks: Optional[np.ndarray] = None,
        training: bool = False,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, dict]:
        """Batched forward; arguments as :meth:`_StackedGCN.forward`."""
        if params is None:
            params = self.params
        cache: dict = {"inputs": [], "aggregated": [], "fresh": [],
                       "masks": [], "dropout": []}
        hidden: np.ndarray = features  # [V, d0] shared, then [R, V, d]
        for i in range(self.num_layers):
            cache["inputs"].append(hidden)
            fresh = None
            if i == 0:
                aggregated = graph.mean_adjacency_matmul(hidden)
            else:
                resident = hidden
                if store is not None:
                    store.refresh(i, hidden, masks)
                    resident = store.read(i)
                    fresh = masks
                aggregated = _stacked_adjacency(
                    graph.mean_adjacency_matmul, resident,
                )
            cache["fresh"].append(fresh)
            cache["aggregated"].append(aggregated)
            out = (
                np.matmul(hidden, params[f"W{i}_self"])
                + np.matmul(aggregated, params[f"W{i}_neigh"])
            )
            if i < self.num_layers - 1:
                mask = out > 0
                out = out * mask
                cache["masks"].append(mask)
                if training and self._dropout > 0:
                    keep = self._dropout_keep(out.shape[1:])
                    out = out * keep
                    cache["dropout"].append(keep)
                else:
                    cache["dropout"].append(None)
            else:
                cache["masks"].append(None)
                cache["dropout"].append(None)
            hidden = out
        return hidden, cache

    def backward(
        self,
        graph: Graph,
        cache: dict,
        grad_output: np.ndarray,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Batched backward mirroring :meth:`GraphSAGE.backward` per
        slice; stale resident rows are constants."""
        if params is None:
            params = self.params
        grads: Dict[str, np.ndarray] = {}
        grad = np.asarray(grad_output, dtype=np.float32)
        for i in range(self.num_layers - 1, -1, -1):
            keep = cache["dropout"][i]
            if keep is not None:
                grad = grad * keep
            mask = cache["masks"][i]
            if mask is not None:
                grad = grad * mask
            grads[f"W{i}_self"] = _weight_grad(cache["inputs"][i], grad)
            grads[f"W{i}_neigh"] = _weight_grad(cache["aggregated"][i], grad)
            if i > 0:
                grad_hidden = np.matmul(
                    grad, params[f"W{i}_self"].transpose(0, 2, 1),
                )
                # Through mean aggregation: (D^-1 A)^T g = A (D^-1 g).
                grad_agg = np.matmul(
                    grad, params[f"W{i}_neigh"].transpose(0, 2, 1),
                )
                scale = np.where(
                    graph.degrees > 0,
                    1.0 / np.maximum(graph.degrees, 1), 0.0,
                ).astype(np.float32)
                back = _stacked_adjacency(
                    graph.adjacency_matmul, grad_agg * scale[:, None],
                )
                fresh = cache["fresh"][i]
                if fresh is not None:  # all-ones rows: bitwise no-ops
                    back = back * fresh[:, :, None]
                grad = grad_hidden + back
        return grads


# ----------------------------------------------------------------------
# Batched losses/metrics (per-replica-row scalar reductions)
# ----------------------------------------------------------------------
def _cross_entropy_replicas(
    logits: np.ndarray,
    labels: np.ndarray,
) -> Tuple[List[float], np.ndarray]:
    """Batched :func:`~repro.gcn.losses.cross_entropy_loss`.

    ``logits`` is ``[R, n, C]``, ``labels`` ``[R, n]``.  Scalar losses
    extract each replica's contiguous probability row before the 1-D
    ``mean`` so the pairwise-summation blocking matches the serial path.
    """
    logits64 = np.asarray(logits, dtype=np.float64)
    num_replicas, n, num_classes = logits64.shape
    if labels.min() < 0 or labels.max() >= num_classes:
        raise TrainingError("labels out of range of logit columns")
    probs = softmax(logits64.reshape(num_replicas * n, num_classes))
    probs = probs.reshape(num_replicas, n, num_classes)
    rows = np.arange(n)
    losses = []
    for r in range(num_replicas):
        picked = probs[r, rows, labels[r]]
        losses.append(float(-np.log(picked + 1e-12).mean()))
    grad = probs
    grad[np.arange(num_replicas)[:, None], rows[None, :], labels] -= 1.0
    return losses, (grad / n).astype(np.float32)


def _accuracy_replicas(logits: np.ndarray, labels: np.ndarray) -> List[float]:
    """Batched top-1 accuracy; ``logits`` ``[R, n, C]``, labels ``[R, n]``."""
    preds = logits.argmax(axis=-1)
    return [
        float((preds[r] == labels[r]).mean()) for r in range(preds.shape[0])
    ]


class _EdgeScoreBuffers:
    """Preallocated gather buffers for dot-product decoder scores.

    ``np.take(..., out=buf, mode="clip")`` into warm buffers skips the
    per-call 6-odd-MB allocation churn of ``embeddings[edges[:, 0]]``;
    the einsum over the buffers returns the same bits as the serial
    decoder's ``einsum`` over fancy-indexed rows (gathers are exact
    copies).
    """

    def __init__(self, capacity: int, dim: int) -> None:
        self._a = np.empty((capacity, dim), dtype=np.float32)
        self._b = np.empty((capacity, dim), dtype=np.float32)

    def scores(
        self,
        embeddings: np.ndarray,
        idx0: np.ndarray,
        idx1: np.ndarray,
    ) -> np.ndarray:
        m = idx0.shape[0]
        a, b = self._a[:m], self._b[:m]
        np.take(embeddings, idx0, axis=0, out=a, mode="clip")
        np.take(embeddings, idx1, axis=0, out=b, mode="clip")
        return np.einsum("ij,ij->i", a, b)


def _edge_accuracy(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Balanced accuracy of the dot-product decoder at threshold 0."""
    correct = float((pos_scores > 0).sum() + (neg_scores <= 0).sum())
    return correct / (pos_scores.size + neg_scores.size)


def _bce_sum_terms(
    probs: np.ndarray,
    num_replicas: int,
    log_buf: np.ndarray,
) -> List[float]:
    """Per-replica BCE totals from the ``[2R, E]`` probability matrix.

    Row ``r`` holds replica ``r``'s positive-edge probabilities, row
    ``R + r`` its negative-edge ones.  The serial form is
    ``-(label*log(p + 1e-12) + (1-label)*log(1 - p + 1e-12)).sum()``;
    with ``label`` exactly 1.0 or 0.0 the zero-weighted log contributes
    ``±0.0`` per element (its argument is finite and positive), and
    ``x + ±0.0 == x`` bitwise for every value the kept log produces, so
    evaluating only the weighted log is bit-identical at a quarter of
    the elementwise work.  Each row is contiguous, so the 1-D ``sum``
    keeps the serial pairwise-summation blocking.
    """
    totals = []
    for r in range(num_replicas):
        np.add(probs[r], 1e-12, out=log_buf)
        np.log(log_buf, out=log_buf)
        total = float(-log_buf.sum())
        np.subtract(1.0, probs[num_replicas + r], out=log_buf)
        np.add(log_buf, 1e-12, out=log_buf)
        np.log(log_buf, out=log_buf)
        total += float(-log_buf.sum())
        totals.append(total)
    return totals


# ----------------------------------------------------------------------
# Batched trainers
# ----------------------------------------------------------------------
def _epoch_masks(
    plans: Sequence[Optional[UpdatePlan]],
    num_vertices: int,
    epoch: int,
) -> Optional[np.ndarray]:
    """The ``[R, V]`` refresh mask for one epoch, or None when every
    replica refreshes fully (plan-less, or a minor-refresh epoch)."""
    rows = []
    partial = False
    for plan in plans:
        if plan is None:
            rows.append(None)
            continue
        updated = plan.vertices_updated_at(epoch)
        if updated.size == num_vertices:
            rows.append(None)
            continue
        row = np.zeros(num_vertices, dtype=bool)
        row[updated] = True
        rows.append(row)
        partial = True
    if not partial:
        return None
    masks = np.ones((len(plans), num_vertices), dtype=bool)
    for r, row in enumerate(rows):
        if row is not None:
            masks[r] = row
    return masks


class BatchedNodeTrainer:
    """R node-classification runs, one batched pass per epoch.

    Replica ``r`` is the run ``NodeClassificationTrainer(graph,
    random_state=random_states[r], ...)`` would train; the other
    hyperparameters are shared by the fleet.  ``models`` holds each
    replica's :class:`~repro.gcn.model.GCN`, updated after every
    :meth:`train` call.
    """

    def __init__(
        self,
        graph: Graph,
        random_states: Sequence[int],
        hidden_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = NODE_TEST_FRACTION,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None or graph.labels is None:
            raise TrainingError("node task needs features and labels")
        self._graph = graph
        self._rngs = [np.random.default_rng(seed) for seed in random_states]
        dims = _layer_dims(
            graph.feature_dim, hidden_dim, graph.num_classes, num_layers,
        )
        self.models = [
            GCN(dims, dropout=dropout, random_state=seed,
                analog_noise_sigma=analog_noise_sigma)
            for seed in random_states
        ]
        self._stacked = _StackedGCN.from_models(self.models)
        self._optimizer = Adam(learning_rate=learning_rate)
        splits = [
            _split_indices(graph.num_vertices, test_fraction, rng)
            for rng in self._rngs
        ]
        self.train_idx = np.stack([s[0] for s in splits])
        self.test_idx = np.stack([s[1] for s in splits])
        labels = graph.labels
        self._train_labels = np.stack([labels[idx] for idx in self.train_idx])
        self._test_labels = np.stack([labels[idx] for idx in self.test_idx])
        self._store = _BatchedStore(num_layers)

    @profile.phase(profile.PHASE_TRAINING_BATCHED)
    def train(
        self,
        epochs: int,
        update_plans: Sequence[Optional[UpdatePlan]],
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> List[TrainingResult]:
        """Train every replica ``epochs`` epochs; ``update_plans[r]``
        (None = full updates) is replica ``r``'s staleness schedule.

        ``start_epoch`` offsets the plans' epoch phase so a caller driving
        the loop one epoch at a time keeps the ISU minor-refresh cadence.
        ``eval_every`` strides metric evaluation (the final epoch is
        always evaluated); losses are recorded every epoch.
        """
        _validate_schedule(epochs, start_epoch, eval_every)
        num_replicas = len(self.models)
        if len(update_plans) != num_replicas:
            raise TrainingError("need one update plan per replica")
        first = self.models[0]
        if first.analog_noise_sigma > 0:
            eval_every = 1  # eval forwards draw RNG; keep streams fixed
        reuse_logits = (
            first.dropout == 0.0 and first.analog_noise_sigma == 0.0
        )
        model = self._stacked
        graph = self._graph
        features = graph.features
        results = [TrainingResult() for _ in range(num_replicas)]
        train_labels, test_labels = self._train_labels, self._test_labels
        replica_rows = np.arange(num_replicas)[:, None]
        grad_buffer: Optional[np.ndarray] = None
        last_epoch = start_epoch + epochs - 1
        no_updates = np.zeros((num_replicas, graph.num_vertices), dtype=bool)
        for epoch in range(start_epoch, start_epoch + epochs):
            masks = _epoch_masks(update_plans, graph.num_vertices, epoch)
            logits, cache = model.forward(
                graph, features, store=self._store, masks=masks,
                training=True,
            )
            picked = logits[replica_rows, self.train_idx]
            losses, grad_logits = _cross_entropy_replicas(
                picked, train_labels,
            )
            if grad_buffer is None:
                grad_buffer = np.zeros_like(logits)
            else:
                grad_buffer.fill(0.0)
            grad_buffer[replica_rows, self.train_idx] = grad_logits
            grads = model.backward(graph, cache, grad_buffer)
            self._optimizer.step(model.params, grads)

            for r, loss in enumerate(losses):
                results[r].losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_logits:
                eval_logits = logits
            else:
                eval_logits, _ = model.forward(
                    graph, features, store=self._store, masks=no_updates,
                    training=False,
                )
            train_metrics = _accuracy_replicas(
                eval_logits[replica_rows, self.train_idx], train_labels,
            )
            test_metrics = _accuracy_replicas(
                eval_logits[replica_rows, self.test_idx], test_labels,
            )
            for r in range(num_replicas):
                results[r].eval_epochs.append(epoch)
                results[r].train_metrics.append(train_metrics[r])
                results[r].test_metrics.append(test_metrics[r])
        model.write_back(self.models)
        profile.accrue_calls(
            profile.PHASE_TRAINING_BATCHED, num_replicas - 1,
        )
        return results


class BatchedLinkTrainer:
    """R link-prediction runs, one batched pass per epoch.

    Replica ``r`` is the run ``LinkPredictionTrainer(graph,
    random_state=random_states[r], ...)`` would train, as in
    :class:`BatchedNodeTrainer`.  When every replica shares a seed (the
    tab05/fig16 shape) the edge
    split and the per-epoch negative draws coincide, so the fused
    gradient-scatter plan (:func:`~repro.gcn.losses.edge_scatter_plan`)
    is built once per epoch and applied per replica.
    """

    def __init__(
        self,
        graph: Graph,
        random_states: Sequence[int],
        hidden_dim: int = 64,
        embedding_dim: int = 64,
        num_layers: int = 2,
        learning_rate: float = 0.01,
        dropout: float = 0.0,
        test_fraction: float = LINK_TEST_FRACTION,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None:
            raise TrainingError("link task needs vertex features")
        self._graph = graph
        self._rngs = [np.random.default_rng(seed) for seed in random_states]
        dims = _layer_dims(
            graph.feature_dim, hidden_dim, embedding_dim, num_layers,
        )
        self.models = [
            GCN(dims, dropout=dropout, random_state=seed,
                analog_noise_sigma=analog_noise_sigma)
            for seed in random_states
        ]
        self._stacked = _StackedGCN.from_models(self.models)
        self._optimizer = Adam(learning_rate=learning_rate)
        edges = graph.edge_list()
        if edges.shape[0] < 4:
            raise TrainingError("graph too small for a link split")
        self.train_pos: List[np.ndarray] = []
        self.test_pos: List[np.ndarray] = []
        self.test_neg: List[np.ndarray] = []
        for rng in self._rngs:
            train_rows, test_rows = _split_indices(
                edges.shape[0], test_fraction, rng,
            )
            self.train_pos.append(edges[train_rows])
            self.test_pos.append(edges[test_rows])
            self.test_neg.append(np.stack(
                self._sample_negative_columns(rng, test_rows.shape[0]),
                axis=1,
            ))
        self._shared_seed = len(set(random_states)) == 1
        dim = embedding_dim
        capacity = max(
            max(p.shape[0] for p in self.train_pos),
            max(
                tp.shape[0] + tn.shape[0]
                for tp, tn in zip(self.test_pos, self.test_neg)
            ),
        )
        self._buffers = _EdgeScoreBuffers(capacity, dim)
        # Contiguous index columns for the fixed edge sets.
        self._pos_idx = [
            (np.ascontiguousarray(p[:, 0]), np.ascontiguousarray(p[:, 1]))
            for p in self.train_pos
        ]
        # Test pos/neg gathers fused into one take per endpoint column;
        # the score vector splits back at ``m`` (row slices are views).
        self._test_idx = [
            (
                np.concatenate([tp[:, 0], tn[:, 0]]),
                np.concatenate([tp[:, 1], tn[:, 1]]),
                tp.shape[0],
            )
            for tp, tn in zip(self.test_pos, self.test_neg)
        ]
        # Every replica splits the same edge list with the same fraction,
        # so train pos/neg counts agree across replicas; scores live in
        # one [2R, E] matrix (pos rows then neg rows) so the sigmoid and
        # the BCE log run once per epoch instead of 4R times.
        num_edges = self.train_pos[0].shape[0]
        num_replicas = len(self.models)
        self._scores = np.empty(
            (2 * num_replicas, num_edges), dtype=np.float32,
        )
        self._log_buf = np.empty(num_edges, dtype=np.float64)
        self._data_buf = np.empty(4 * num_edges, dtype=np.float64)
        self._emb64_buf = np.empty((graph.num_vertices, dim), dtype=np.float64)
        self._store = _BatchedStore(num_layers)

    def _sample_negative_columns(
        self, rng: np.random.Generator, count: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` random non-self-loop vertex pairs, as the two
        contiguous endpoint columns the epoch loop gathers with (the
        serial trainer's draws, without its ``[count, 2]`` stack)."""
        n = self._graph.num_vertices
        src = rng.integers(0, n, size=2 * count + 8)
        dst = rng.integers(0, n, size=2 * count + 8)
        keep = src != dst
        return src[keep][:count], dst[keep][:count]

    @profile.phase(profile.PHASE_TRAINING_BATCHED)
    def train(
        self,
        epochs: int,
        update_plans: Sequence[Optional[UpdatePlan]],
        start_epoch: int = 0,
        eval_every: int = 1,
    ) -> List[TrainingResult]:
        """Train every replica; the schedule arguments are
        :meth:`BatchedNodeTrainer.train`'s."""
        _validate_schedule(epochs, start_epoch, eval_every)
        num_replicas = len(self.models)
        if len(update_plans) != num_replicas:
            raise TrainingError("need one update plan per replica")
        first = self.models[0]
        if first.analog_noise_sigma > 0:
            eval_every = 1
        reuse_embeddings = (
            first.dropout == 0.0 and first.analog_noise_sigma == 0.0
        )
        model = self._stacked
        graph = self._graph
        features = graph.features
        num_vertices = graph.num_vertices
        results = [TrainingResult() for _ in range(num_replicas)]
        buffers = self._buffers
        last_epoch = start_epoch + epochs - 1
        no_updates = np.zeros((num_replicas, num_vertices), dtype=bool)
        grad_emb: Optional[np.ndarray] = None
        for epoch in range(start_epoch, start_epoch + epochs):
            masks = _epoch_masks(update_plans, num_vertices, epoch)
            embeddings, cache = model.forward(
                graph, features, store=self._store, masks=masks,
                training=True,
            )
            neg_idx = [
                self._sample_negative_columns(
                    self._rngs[r], self.train_pos[r].shape[0],
                )
                for r in range(num_replicas)
            ]
            # Fused BCE: all replicas' scores in one [2R, E] matrix so
            # sigmoid runs once per epoch; one scatter plan per epoch
            # (shared across replicas when the seeds agree).
            scores = self._scores
            for r in range(num_replicas):
                p0, p1 = self._pos_idx[r]
                n0, n1 = neg_idx[r]
                scores[r] = buffers.scores(embeddings[r], p0, p1)
                scores[num_replicas + r] = buffers.scores(
                    embeddings[r], n0, n1,
                )
            probs = sigmoid(scores)
            losses = _bce_sum_terms(probs, num_replicas, self._log_buf)
            num_edges = scores.shape[1]
            count = 2 * num_edges
            scatter = None
            if grad_emb is None:
                grad_emb = np.empty_like(embeddings)
            data = self._data_buf
            for r in range(num_replicas):
                if scatter is None or not self._shared_seed:
                    p0, p1 = self._pos_idx[r]
                    n0, n1 = neg_idx[r]
                    scatter = EdgeScatter(
                        np.concatenate([p0, p1, n0, n1]),
                        np.concatenate([p1, p0, n1, n0]),
                        num_vertices,
                    )
                # Coefficients in the serial concatenation order:
                # [coeff_pos, coeff_pos, neg_probs, neg_probs].
                np.subtract(probs[r], 1.0, out=data[:num_edges])
                data[num_edges:2 * num_edges] = data[:num_edges]
                data[2 * num_edges:3 * num_edges] = probs[num_replicas + r]
                data[3 * num_edges:] = probs[num_replicas + r]
                grad = scatter.apply(
                    data, embeddings[r], emb64_buf=self._emb64_buf,
                )
                # In-place divide, then let the assignment cast to
                # f32 — the same rounding as
                # ``(grad / count).astype(float32)``.
                np.divide(grad, count, out=grad)
                grad_emb[r] = grad
                losses[r] = losses[r] / count
            grads = model.backward(graph, cache, grad_emb)
            self._optimizer.step(model.params, grads)

            for r, loss in enumerate(losses):
                results[r].losses.append(loss)
            evaluate = (
                (epoch - start_epoch + 1) % eval_every == 0
                or epoch == last_epoch
            )
            if not evaluate:
                continue
            if reuse_embeddings:
                eval_emb = embeddings
                train_pos_scores = [scores[r] for r in range(num_replicas)]
                train_neg_scores = [
                    scores[num_replicas + r] for r in range(num_replicas)
                ]
            else:
                eval_emb, _ = model.forward(
                    graph, features, store=self._store,
                    masks=no_updates, training=False,
                )
                train_pos_scores = [
                    buffers.scores(eval_emb[r], *self._pos_idx[r])
                    for r in range(num_replicas)
                ]
                train_neg_scores = [
                    buffers.scores(eval_emb[r], *neg_idx[r])
                    for r in range(num_replicas)
                ]
            for r in range(num_replicas):
                cat0, cat1, num_test_pos = self._test_idx[r]
                test_scores = buffers.scores(eval_emb[r], cat0, cat1)
                results[r].eval_epochs.append(epoch)
                results[r].train_metrics.append(
                    _edge_accuracy(
                        train_pos_scores[r], train_neg_scores[r],
                    )
                )
                results[r].test_metrics.append(
                    _edge_accuracy(
                        test_scores[:num_test_pos],
                        test_scores[num_test_pos:],
                    )
                )
        model.write_back(self.models)
        profile.accrue_calls(
            profile.PHASE_TRAINING_BATCHED, num_replicas - 1,
        )
        return results


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def train_replicas(specs: Sequence[ReplicaSpec]) -> List[TrainingResult]:
    """Train every replica, batching compatible groups.

    Replicas sharing a :meth:`ReplicaSpec.group_key` train together in
    one stacked pass; a group of one is a fleet of one.  Results come
    back in input order and are bit-identical to training each spec on
    its own.
    """
    for spec in specs:
        if spec.task not in ("node", "link"):
            raise TrainingError(f"unknown task {spec.task!r}")
    groups: Dict[Tuple, List[int]] = {}
    for position, spec in enumerate(specs):
        groups.setdefault(spec.group_key(), []).append(position)
    results: List[Optional[TrainingResult]] = [None] * len(specs)
    for positions in groups.values():
        group = [specs[p] for p in positions]
        first = group[0]
        kwargs = dict(
            hidden_dim=first.hidden_dim,
            num_layers=first.num_layers,
            learning_rate=first.learning_rate,
            dropout=first.dropout,
            test_fraction=first.resolved_test_fraction(),
            analog_noise_sigma=first.analog_noise_sigma,
        )
        seeds = [spec.random_state for spec in group]
        if first.task == "link":
            trainer = BatchedLinkTrainer(
                first.graph, seeds, embedding_dim=first.embedding_dim,
                **kwargs,
            )
        else:
            trainer = BatchedNodeTrainer(first.graph, seeds, **kwargs)
        group_results = trainer.train(
            first.epochs, [spec.update_plan for spec in group],
            start_epoch=first.start_epoch, eval_every=first.eval_every,
        )
        for position, result in zip(positions, group_results):
            results[position] = result
    return results


# ----------------------------------------------------------------------
# Split harness (abl-model-family, abl-weight-staleness)
# ----------------------------------------------------------------------
SPLIT_LEARNING_RATE = 0.01  # the harness's Adam step size

_STACKED_FAMILIES = {GCN: _StackedGCN, GraphSAGE: _StackedSAGE}


@profile.phase(profile.PHASE_TRAINING_BATCHED)
def train_split_replicas(
    graph: Graph,
    models: Sequence,
    epochs: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    *,
    update_plans: Optional[Sequence[Optional[UpdatePlan]]] = None,
    param_delays: Optional[Sequence[int]] = None,
) -> List[float]:
    """The split-harness loop: best test accuracy per replica.

    Trains R >= 1 pre-constructed models of one family (all
    :class:`~repro.gcn.model.GCN` or all
    :class:`~repro.gcn.sage.GraphSAGE`, with equal dims, dropout and
    noise) on one vertex split as one stacked model: full-graph forward,
    CE on the train vertices, Adam on live params, greedy best-of-epochs
    test accuracy.  ``update_plans`` (one optional
    :class:`~repro.mapping.selective.UpdatePlan` per model) turns the
    stale-feature store on; ``param_delays`` (one delay >= 0 per model)
    gives PipeDream-style delayed gradients: forward/backward under the
    weights ``delay`` updates old, the optimizer stepping the live ones.
    Each replica is bit-identical to the serial loop kept in
    ``tests/oracles/split_harness.py``, and each model holds its final
    weights afterwards.
    """
    if epochs < 1:
        raise TrainingError("epochs must be >= 1")
    if graph.features is None or graph.labels is None:
        raise TrainingError("split training needs features and labels")
    if not models:
        raise TrainingError("need at least one model")
    num_replicas = len(models)
    use_store = update_plans is not None
    plans = list(update_plans) if use_store else [None] * num_replicas
    delays = (
        list(param_delays) if param_delays is not None
        else [0] * num_replicas
    )
    if len(plans) != num_replicas or len(delays) != num_replicas:
        raise TrainingError("need one update plan and one delay per model")
    if min(delays) < 0:
        raise TrainingError("delays must be >= 0")
    family = _STACKED_FAMILIES.get(type(models[0]))
    if family is None:
        raise TrainingError(
            f"no stacked model for {type(models[0]).__name__}"
        )
    if models[0].layer_dims[0][0] != graph.feature_dim:
        raise TrainingError("model input dim must equal the feature dim")
    stacked = family.from_models(models)
    optimizer = Adam(learning_rate=SPLIT_LEARNING_RATE)
    store = _BatchedStore(stacked.num_layers) if use_store else None
    labels = graph.labels
    train_labels = np.stack([labels[train_idx]] * num_replicas)
    test_labels = labels[test_idx]
    max_delay = max(delays)
    history: List[Dict[str, np.ndarray]] = []
    num_vertices = graph.num_vertices
    grad_buffer: Optional[np.ndarray] = None
    best = [0.0] * num_replicas
    no_updates = np.zeros((num_replicas, num_vertices), dtype=bool)
    for epoch in range(epochs):
        stale_params: Optional[Dict[str, np.ndarray]] = None
        if max_delay > 0:
            # Serial semantics: snapshot live params at epoch start, use
            # the snapshot from `delay` epochs ago (clamped to epoch 0).
            history.append({
                key: val.copy() for key, val in stacked.params.items()
            })
            if len(history) > max_delay + 1:
                history.pop(0)
            base = epoch - len(history) + 1  # epoch of history[0]
            stale_params = {
                key: np.stack([
                    history[max(0, epoch - delays[r]) - base][key][r]
                    for r in range(num_replicas)
                ])
                for key in stacked.params
            }
        masks = (
            _epoch_masks(plans, num_vertices, epoch)
            if use_store else None
        )
        logits, cache = stacked.forward(
            graph, graph.features, store=store, masks=masks,
            training=True, params=stale_params,
        )
        picked = logits[:, train_idx]
        _, grad_logits = _cross_entropy_replicas(picked, train_labels)
        if grad_buffer is None:
            grad_buffer = np.zeros_like(logits)
        else:
            grad_buffer.fill(0.0)
        grad_buffer[:, train_idx] = grad_logits
        grads = stacked.backward(
            graph, cache, grad_buffer, params=stale_params,
        )
        optimizer.step(stacked.params, grads)

        eval_logits, _ = stacked.forward(
            graph, graph.features, store=store,
            masks=no_updates if use_store else None, training=False,
        )
        test_accs = _accuracy_replicas(
            eval_logits[:, test_idx],
            np.stack([test_labels] * num_replicas),
        )
        for r in range(num_replicas):
            best[r] = max(best[r], test_accs[r])
    stacked.write_back(models)
    profile.accrue_calls(profile.PHASE_TRAINING_BATCHED, num_replicas - 1)
    return best
