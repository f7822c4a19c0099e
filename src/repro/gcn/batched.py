"""Replica-batched GNN training: the one node/link and split-harness loop.

The ablation/table experiments (tab05, fig16, abl-model-family,
abl-weight-staleness, ...) train fleets of *small* models that differ
only in seed and staleness schedule.  This module stacks R such runs
into one extra leading tensor dimension — weights ``[R, in, out]``,
activations ``[R, V, d]`` — and advances all R replicas with one
batched forward/backward/Adam step per epoch.  A
single run is a fleet of one: :class:`~repro.gcn.trainer.NodeClassificationTrainer`
and :class:`~repro.gcn.trainer.LinkPredictionTrainer` wrap an R=1 engine,
:func:`train_split_replicas` (the ablation split harness) trains
GCN and GraphSAGE fleets of any size, and :func:`infer` runs one
model's eval forward.  The stacked models here are the only GNN
forward/backward in ``src/``.  :func:`train_replicas` keeps each
replica's result in the session's artifact cache (``"training"``), so a
replica trains once per cache.

**Bit-identity contract.**  Every replica reproduces the serial passes
kept as oracles in ``tests/oracles/gnn.py`` and the serial loops built
on them in ``tests/oracles/trainers.py`` and
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
  init and its ``_rng`` (the model stream: analog noise) are the serial
  ones; the trainer stream (split + negative sampling) is
  ``np.random.default_rng(seed)``; both are drawn in the serial order,
  so stream positions coincide after every ``train`` call;
* staleness batches via a per-replica refresh mask: plan-less replicas
  carry an all-ones mask row, and multiplying a float32 gradient by 1.0
  is bitwise the identity, so mixed vanilla/ISU groups stay eligible.

Every run trains one configuration: two GCN layers ``HIDDEN_DIM`` wide
(node runs may narrow it), ``EMBEDDING_DIM``-wide link embeddings, the
task's test fraction and :class:`~repro.gcn.optim.Adam`'s fixed step.
Groups must agree on everything *except* seed, update plan, and (for the
split path) gradient delay: same graph object, task, epochs and noise
sigma.  Model, Adam, stale-store and RNG state persist across ``train``
calls, so a caller may drive an engine one epoch at a time (the
co-simulator does).
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
from repro.gcn.optim import BETA1, BETA2, EPS, LEARNING_RATE, Adam
from repro.gcn.sage import GraphSAGE
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
from repro.perf import profile
from repro.perf.cache import cache_key

HIDDEN_DIM = 64  # width of every hidden GCN layer
EMBEDDING_DIM = 64  # width of the link task's vertex embeddings
NODE_TEST_FRACTION = 0.3  # share of vertices held out for node runs
LINK_TEST_FRACTION = 0.2  # share of edges held out for link runs

TRAINING_NAMESPACE = "training"
# Part of every "training" key: bump it with any change to the code a
# training run executes, so a disk tier written by older code is never
# read back (tests/perf/test_revisioned_layouts.py pins it beside a
# digest of that code).
_TRAINING_REVISION = "one-configuration-v1"


@dataclass
class TrainingResult:
    """Loss/metric history of one training run, one entry per epoch."""

    losses: List[float] = field(default_factory=list)
    train_metrics: List[float] = field(default_factory=list)
    test_metrics: List[float] = field(default_factory=list)

    @property
    def final_test_metric(self) -> float:
        """Metric at the last epoch."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return self.test_metrics[-1]

    @property
    def best_test_metric(self) -> float:
        """Best epoch metric (what the paper tables report)."""
        if not self.test_metrics:
            raise TrainingError("no epochs recorded")
        return max(self.test_metrics)

    def copy(self) -> "TrainingResult":
        """A result with its own lists."""
        return TrainingResult(
            list(self.losses), list(self.train_metrics),
            list(self.test_metrics),
        )


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


def _validate_schedule(epochs: int, start_epoch: int) -> None:
    if epochs < 1:
        raise TrainingError("epochs must be >= 1")
    if start_epoch < 0:
        raise TrainingError("start_epoch must be >= 0")


@dataclass(frozen=True, eq=False)
class ReplicaSpec:
    """One training run, described for replica batching.

    Replicas group together when they agree on every field except
    ``random_state`` and ``update_plan``.
    """

    graph: Graph
    task: str
    epochs: int
    random_state: int = 0
    update_plan: Optional[UpdatePlan] = None
    analog_noise_sigma: float = 0.0

    def group_key(self) -> Tuple:
        """Replicas sharing this key may train in one batched group."""
        return (
            id(self.graph), self.task, self.epochs, self.analog_noise_sigma,
        )

    def content_key(self) -> str:
        """The run's ``"training"`` cache key: what its result depends on.

        Unlike :meth:`group_key` it names content, not objects: a graph
        or plan built apart with equal content keys equally.  It holds
        every module constant a run reads, and the revision of the code
        that runs.
        """
        return cache_key(
            _TRAINING_REVISION, self.graph, self.task, self.epochs,
            self.random_state, self.update_plan,
            float(self.analog_noise_sigma),
            HIDDEN_DIM, EMBEDDING_DIM, NODE_TEST_FRACTION,
            LINK_TEST_FRACTION, LEARNING_RATE, BETA1, BETA2, EPS,
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
    """The stacked stale-feature store (the serial ``StaleFeatureStore``
    oracle is in ``tests/oracles/gnn.py``): one
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
    operation; per-replica randomness (analog noise) draws from each
    replica's own ``model`` stream in the serial order.
    """

    def __init__(
        self,
        first,
        params: Dict[str, np.ndarray],
        model_rngs: List[np.random.Generator],
    ) -> None:
        self._dims = first.layer_dims
        self.params = params
        self._rngs = model_rngs

    @property
    def num_layers(self) -> int:
        return len(self._dims)

    @staticmethod
    def signature(model) -> Tuple:
        """The hyperparameters every replica of one stacked model shares."""
        return (model.layer_dims,)

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
                "a stacked fleet needs one model family with equal dims "
                "and noise"
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


class _StackedGCN(_StackedModel):
    """R :class:`~repro.gcn.model.GCN` replicas as one model, mirroring
    the serial GCN forward/backward (the oracle functions in
    ``tests/oracles/gnn.py``) operation for operation."""

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
        return (model.layer_dims, model.analog_noise_sigma)

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: Graph,
        features: np.ndarray,
        store: Optional[_BatchedStore] = None,
        masks: Optional[np.ndarray] = None,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, dict]:
        """Batched forward; ``masks`` is the ``[R, V]`` refresh mask
        (None = every replica refreshes fully this round)."""
        if params is None:
            params = self.params
        cache: dict = {"inputs": [], "masks": [], "fresh": []}
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
            else:
                hidden = aggregated
                cache["masks"].append(None)
        return hidden, cache

    def backward(
        self,
        graph: Graph,
        cache: dict,
        grad_output: np.ndarray,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Batched backward mirroring the serial GCN backward per slice."""
        if params is None:
            params = self.params
        grads: Dict[str, np.ndarray] = {}
        grad = np.asarray(grad_output, dtype=np.float32)
        for i in range(self.num_layers - 1, -1, -1):
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
    mirroring the serial GraphSAGE forward/backward (the oracle
    functions in ``tests/oracles/gnn.py``) operation for operation.

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
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, dict]:
        """Batched forward; arguments as :meth:`_StackedGCN.forward`."""
        if params is None:
            params = self.params
        cache: dict = {"inputs": [], "aggregated": [], "fresh": [], "masks": []}
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
            else:
                cache["masks"].append(None)
            hidden = out
        return hidden, cache

    def backward(
        self,
        graph: Graph,
        cache: dict,
        grad_output: np.ndarray,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Batched backward mirroring the serial GraphSAGE backward per
        slice; stale resident rows are constants."""
        if params is None:
            params = self.params
        grads: Dict[str, np.ndarray] = {}
        grad = np.asarray(grad_output, dtype=np.float32)
        for i in range(self.num_layers - 1, -1, -1):
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
    """Batched mean cross-entropy and its gradient w.r.t. the logits.

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
    hidden_dim, random_state=random_states[r])`` would train, with the
    fleet's analog noise.  ``models`` holds each replica's
    :class:`~repro.gcn.model.GCN`, updated after every :meth:`train`
    call.
    """

    def __init__(
        self,
        graph: Graph,
        random_states: Sequence[int],
        hidden_dim: int = HIDDEN_DIM,
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None or graph.labels is None:
            raise TrainingError("node task needs features and labels")
        self._graph = graph
        self._rngs = [np.random.default_rng(seed) for seed in random_states]
        dims = [
            (graph.feature_dim, hidden_dim), (hidden_dim, graph.num_classes),
        ]
        self.models = [
            GCN(dims, random_state=seed, analog_noise_sigma=analog_noise_sigma)
            for seed in random_states
        ]
        self._stacked = _StackedGCN.from_models(self.models)
        self._optimizer = Adam()
        splits = [
            _split_indices(graph.num_vertices, NODE_TEST_FRACTION, rng)
            for rng in self._rngs
        ]
        self.train_idx = np.stack([s[0] for s in splits])
        self.test_idx = np.stack([s[1] for s in splits])
        labels = graph.labels
        self._train_labels = np.stack([labels[idx] for idx in self.train_idx])
        self._test_labels = np.stack([labels[idx] for idx in self.test_idx])
        self._store = _BatchedStore(self._stacked.num_layers)

    @profile.phase(profile.PHASE_TRAINING_BATCHED)
    def train(
        self,
        epochs: int,
        update_plans: Sequence[Optional[UpdatePlan]],
        start_epoch: int = 0,
    ) -> List[TrainingResult]:
        """Train every replica ``epochs`` epochs; ``update_plans[r]``
        (None = full updates) is replica ``r``'s staleness schedule.

        ``start_epoch`` offsets the plans' epoch phase so a caller driving
        the loop one epoch at a time keeps the ISU minor-refresh cadence.
        Every epoch is evaluated; without analog noise the eval forward
        would reproduce the training logits, so they are reused.
        """
        _validate_schedule(epochs, start_epoch)
        num_replicas = len(self.models)
        if len(update_plans) != num_replicas:
            raise TrainingError("need one update plan per replica")
        reuse_logits = self.models[0].analog_noise_sigma == 0.0
        model = self._stacked
        graph = self._graph
        features = graph.features
        results = [TrainingResult() for _ in range(num_replicas)]
        train_labels, test_labels = self._train_labels, self._test_labels
        replica_rows = np.arange(num_replicas)[:, None]
        grad_buffer: Optional[np.ndarray] = None
        no_updates = np.zeros((num_replicas, graph.num_vertices), dtype=bool)
        for epoch in range(start_epoch, start_epoch + epochs):
            masks = _epoch_masks(update_plans, graph.num_vertices, epoch)
            logits, cache = model.forward(
                graph, features, store=self._store, masks=masks,
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
            if reuse_logits:
                eval_logits = logits
            else:
                eval_logits, _ = model.forward(
                    graph, features, store=self._store, masks=no_updates,
                )
            train_metrics = _accuracy_replicas(
                eval_logits[replica_rows, self.train_idx], train_labels,
            )
            test_metrics = _accuracy_replicas(
                eval_logits[replica_rows, self.test_idx], test_labels,
            )
            for r in range(num_replicas):
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
    random_state=random_states[r])`` would train, as in
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
        analog_noise_sigma: float = 0.0,
    ) -> None:
        if graph.features is None:
            raise TrainingError("link task needs vertex features")
        self._graph = graph
        self._rngs = [np.random.default_rng(seed) for seed in random_states]
        dims = [(graph.feature_dim, HIDDEN_DIM), (HIDDEN_DIM, EMBEDDING_DIM)]
        self.models = [
            GCN(dims, random_state=seed, analog_noise_sigma=analog_noise_sigma)
            for seed in random_states
        ]
        self._stacked = _StackedGCN.from_models(self.models)
        self._optimizer = Adam()
        edges = graph.edge_list()
        if edges.shape[0] < 4:
            raise TrainingError("graph too small for a link split")
        self.train_pos: List[np.ndarray] = []
        self.test_pos: List[np.ndarray] = []
        self.test_neg: List[np.ndarray] = []
        for rng in self._rngs:
            train_rows, test_rows = _split_indices(
                edges.shape[0], LINK_TEST_FRACTION, rng,
            )
            self.train_pos.append(edges[train_rows])
            self.test_pos.append(edges[test_rows])
            self.test_neg.append(np.stack(
                self._sample_negative_columns(rng, test_rows.shape[0]),
                axis=1,
            ))
        self._shared_seed = len(set(random_states)) == 1
        capacity = max(
            max(p.shape[0] for p in self.train_pos),
            max(
                tp.shape[0] + tn.shape[0]
                for tp, tn in zip(self.test_pos, self.test_neg)
            ),
        )
        self._buffers = _EdgeScoreBuffers(capacity, EMBEDDING_DIM)
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
        self._emb64_buf = np.empty(
            (graph.num_vertices, EMBEDDING_DIM), dtype=np.float64,
        )
        self._store = _BatchedStore(self._stacked.num_layers)

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
    ) -> List[TrainingResult]:
        """Train every replica; the schedule arguments and the eval
        reuse are :meth:`BatchedNodeTrainer.train`'s."""
        _validate_schedule(epochs, start_epoch)
        num_replicas = len(self.models)
        if len(update_plans) != num_replicas:
            raise TrainingError("need one update plan per replica")
        reuse_embeddings = self.models[0].analog_noise_sigma == 0.0
        model = self._stacked
        graph = self._graph
        features = graph.features
        num_vertices = graph.num_vertices
        results = [TrainingResult() for _ in range(num_replicas)]
        buffers = self._buffers
        no_updates = np.zeros((num_replicas, num_vertices), dtype=bool)
        grad_emb: Optional[np.ndarray] = None
        for epoch in range(start_epoch, start_epoch + epochs):
            masks = _epoch_masks(update_plans, num_vertices, epoch)
            embeddings, cache = model.forward(
                graph, features, store=self._store, masks=masks,
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
            if reuse_embeddings:
                eval_emb = embeddings
                train_pos_scores = [scores[r] for r in range(num_replicas)]
                train_neg_scores = [
                    scores[num_replicas + r] for r in range(num_replicas)
                ]
            else:
                eval_emb, _ = model.forward(
                    graph, features, store=self._store, masks=no_updates,
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
    """Train every replica the session's cache does not hold yet.

    Each result is kept in ``current_session().cache`` under the
    ``"training"`` namespace, keyed by :meth:`ReplicaSpec.content_key`,
    and a hit comes back as a copy.  The misses sharing a
    :meth:`ReplicaSpec.group_key` train together in one stacked pass; a
    group of one is a fleet of one.  Results come back in input order
    and are bit-identical to training each spec on its own, so which
    fleet trained a replica never shows in its result, hit or miss.
    """
    # Imported here: the runtime layer imports the hardware package,
    # whose functional engine imports this package.
    from repro.runtime import current_session

    for spec in specs:
        if spec.task not in ("node", "link"):
            raise TrainingError(f"unknown task {spec.task!r}")
    cache = current_session().cache
    keys = [spec.content_key() for spec in specs]
    results: List[Optional[TrainingResult]] = [None] * len(specs)
    groups: Dict[Tuple, List[int]] = {}
    for position, spec in enumerate(specs):
        hit = cache.get(TRAINING_NAMESPACE, keys[position])
        if hit is None:
            groups.setdefault(spec.group_key(), []).append(position)
        else:
            results[position] = hit.copy()
    for positions in groups.values():
        group = [specs[p] for p in positions]
        first = group[0]
        seeds = [spec.random_state for spec in group]
        engine = (
            BatchedLinkTrainer if first.task == "link" else BatchedNodeTrainer
        )
        trainer = engine(
            first.graph, seeds, analog_noise_sigma=first.analog_noise_sigma,
        )
        group_results = trainer.train(
            first.epochs, [spec.update_plan for spec in group],
        )
        for position, result in zip(positions, group_results):
            cache.put(TRAINING_NAMESPACE, keys[position], result.copy())
            results[position] = result
    return results


# ----------------------------------------------------------------------
# Split harness (abl-model-family, abl-weight-staleness)
# ----------------------------------------------------------------------
_STACKED_FAMILIES = {GCN: _StackedGCN, GraphSAGE: _StackedSAGE}


def infer(model, graph: Graph, features: np.ndarray) -> np.ndarray:
    """``model``'s eval-forward output (logits or embeddings), ``[V, d]``.

    Runs the model's stacked family as a fleet of one with no stale
    store; analog noise, if any, draws from the model's stream as a
    training eval forward does.
    """
    features = np.asarray(features, dtype=np.float32)
    d_in = model.layer_dims[0][0]
    if features.shape != (graph.num_vertices, d_in):
        raise TrainingError(
            f"features must be ({graph.num_vertices}, "
            f"{d_in}), got {features.shape}"
        )
    stacked = _STACKED_FAMILIES[type(model)].from_models([model])
    outputs, _ = stacked.forward(graph, features)
    return outputs[0]


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
    :class:`~repro.gcn.sage.GraphSAGE`, with equal dims and noise) on
    one vertex split as one stacked model: full-graph forward,
    CE on the train vertices, Adam on live params, greedy best-of-epochs
    test accuracy.  ``update_plans`` (one optional
    :class:`~repro.mapping.selective.UpdatePlan` per model) turns the
    stale-feature store on; ``param_delays`` (one delay >= 0 per model)
    gives PipeDream-style delayed gradients: forward/backward under the
    weights ``delay`` updates old, the optimizer stepping the live ones.
    Each replica is bit-identical to the serial loop kept in
    ``tests/oracles/split_harness.py``, and each model holds its final
    weights afterwards.

    A GCN fleet with the store on and no analog noise reuses the
    training logits as its eval logits: the eval forward refreshes no
    rows, so each layer would aggregate the resident rows the training
    forward just wrote, whatever weights (live or delayed) it multiplies
    by.  GraphSAGE's self path reads the live weights, a store-less
    eval reads fresh rows and a noisy one draws noise, so those run the
    eval forward.
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
    optimizer = Adam()
    store = _BatchedStore(stacked.num_layers) if use_store else None
    reuse_logits = (
        use_store and family is _StackedGCN
        and models[0].analog_noise_sigma == 0.0
    )
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
            params=stale_params,
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

        if reuse_logits:
            eval_logits = logits
        else:
            eval_logits, _ = stacked.forward(
                graph, graph.features, store=store,
                masks=no_updates if use_store else None,
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
