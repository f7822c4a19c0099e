"""Experiment result container, markdown rendering, shared training loop.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result is a titled list of uniform row dicts that renders as the table or
series the paper's figure plots.  Experiments declare themselves to the
registry with the :func:`repro.runtime.experiment` decorator; the
``run_all`` driver enumerates the collected specs.

``metadata`` carries run provenance (spec hash, config fingerprint —
stamped by :meth:`repro.runtime.Session.stamp`); it never renders into
the markdown tables, so provenance can be added or changed without
touching the reproduced output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExperimentError, TrainingError
from repro.perf import profile


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ExperimentError("experiment_id must be non-empty")

    @property
    def columns(self) -> List[str]:
        """Union of row keys, in first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key)
        return list(seen)

    def column(self, name: str) -> List[Any]:
        """All values of one column (missing cells become None)."""
        found = False
        values = []
        for row in self.rows:
            if not found and name in row:
                found = True
            values.append(row.get(name))
        if not found:
            raise ExperimentError(
                f"unknown column {name!r}; "
                f"available: {', '.join(self.columns)}"
            )
        return values

    def to_markdown(self, float_format: str = "{:.3g}") -> str:
        """Render as a GitHub-flavoured markdown table."""
        cols = self.columns
        if not cols:
            return f"## {self.title}\n\n(no rows)\n"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return "" if value is None else str(value)

        lines = [f"## {self.title} ({self.experiment_id})", ""]
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join("---" for _ in cols) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(fmt(row.get(c)) for c in cols) + " |"
            )
        if self.notes:
            lines.extend(["", self.notes])
        return "\n".join(lines) + "\n"


def result_backend(result: ExperimentResult) -> str:
    """The simulation backend a result was produced under.

    Results predating the provenance ``backend`` field (or produced
    without a session stamp) count as ``"analytic"`` — that was the only
    engine that existed.
    """
    provenance = result.metadata.get("provenance") or {}
    return str(provenance.get("backend", "analytic"))


def ensure_uniform_backend(
    results: Sequence[ExperimentResult],
    require: Optional[str] = None,
) -> str:
    """Refuse to combine/compare results from different backends.

    A rendered document or golden-hash comparison must never mix analytic
    and trace rows — trace latencies could silently masquerade as the
    recorded analytic ones.  Returns the common backend; ``require``
    pins it (golden comparisons require ``"analytic"``).
    """
    engines = {result_backend(result) for result in results}
    if len(engines) > 1:
        raise ExperimentError(
            "refusing to combine results from mixed simulation backends: "
            f"{sorted(engines)} (re-run everything under one backend)"
        )
    engine = engines.pop() if engines else "analytic"
    if require is not None and engine != require:
        raise ExperimentError(
            f"these results were produced under backend={engine!r}; "
            f"this comparison requires backend={require!r}"
        )
    return engine


def combine_markdown(results: Sequence[ExperimentResult]) -> str:
    """Concatenate rendered results (the EXPERIMENTS.md generator)."""
    ensure_uniform_backend(results)
    return "\n".join(result.to_markdown() for result in results)


# ----------------------------------------------------------------------
# Shared custom-training-loop boilerplate
# ----------------------------------------------------------------------
EpochKwargs = Union[None, Mapping[str, Any], Callable[[int], Mapping[str, Any]]]


def split_vertices(
    num_vertices: int,
    seed: int,
    train_fraction: float = 0.7,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic sorted train/test vertex split (the ablation split)."""
    if not 0.0 < train_fraction < 1.0:
        raise TrainingError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
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


@profile.phase(profile.PHASE_TRAINING)
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

    The shared skeleton of the ablation studies that drive a model
    outside :class:`~repro.gcn.trainer.NodeClassificationTrainer` (to
    control staleness semantics directly): deterministic 70/30 vertex
    split, full-graph forward, cross-entropy on the train vertices,
    Adam step, greedy best-of-epochs test accuracy.

    ``forward_kwargs`` / ``eval_kwargs`` inject per-epoch keyword
    arguments into the training and evaluation forwards (a dict, or a
    callable of the epoch index — e.g. an ISU plan's update set).
    ``forward_params`` supports PipeDream-style delayed gradients: when
    given, it returns the (stale) parameter dict to run the training
    forward/backward under, while the optimizer still steps the live
    parameters.
    """
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if graph.labels is None:
        raise TrainingError("needs a labelled graph")
    from repro.gcn.losses import accuracy, cross_entropy_loss
    from repro.gcn.optim import Adam

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


def train_with_split_replicas(
    models: Sequence[Any],
    graph,
    epochs: int,
    seed: int,
    *,
    learning_rate: float = 0.01,
    train_fraction: float = 0.7,
    update_plans: Optional[Sequence[Any]] = None,
    use_store: bool = False,
    param_delays: Optional[Sequence[int]] = None,
) -> List[float]:
    """Replica-collecting :func:`train_with_split`: one batched pass.

    Runs R models through the shared ablation loop — same graph, split,
    epochs, and learning rate — stacked into one ``[R, ...]`` tensor pass
    (:func:`repro.gcn.batched.train_split_replicas`), returning each
    model's best test accuracy bit-identical to R serial
    :func:`train_with_split` calls.  The staleness knobs are declarative
    so the batched path can reproduce them: ``update_plans`` (one
    optional :class:`~repro.mapping.selective.UpdatePlan` per model, with
    ``use_store``) replays the stale-feature-store call shape, and
    ``param_delays`` replays the PipeDream delayed-gradient shape.

    Falls back to serial :func:`train_with_split` calls — reconstructing
    the exact per-model ``forward_kwargs``/``forward_params`` closures —
    when batching cannot be bit-identical: fewer than two models, a
    non-:class:`~repro.gcn.model.GCN` family (GraphSAGE), per-epoch
    model randomness (dropout or analog noise), or mismatched layer
    dims.
    """
    from repro.gcn.batched import train_split_replicas
    from repro.gcn.model import GCN, StaleFeatureStore

    if update_plans is not None and use_store is False:
        use_store = True
    plans = (
        list(update_plans) if update_plans is not None
        else [None] * len(models)
    )
    delays = (
        list(param_delays) if param_delays is not None
        else [0] * len(models)
    )
    if len(plans) != len(models) or len(delays) != len(models):
        raise TrainingError("one plan/delay per model required")

    first = models[0] if models else None
    batchable = (
        len(models) >= 2
        and all(type(model) is GCN for model in models)
        and all(model.dropout == 0.0 for model in models)
        and all(model.analog_noise_sigma == 0.0 for model in models)
        and all(model.layer_dims == first.layer_dims for model in models)
    )
    if batchable:
        train_idx, test_idx = split_vertices(
            graph.num_vertices, seed, train_fraction,
        )
        return train_split_replicas(
            graph, models, epochs, train_idx, test_idx,
            learning_rate=learning_rate,
            update_plans=plans if use_store else None,
            use_store=use_store,
            param_delays=delays if param_delays is not None else None,
        )

    results: List[float] = []
    for model, plan, delay in zip(models, plans, delays):
        forward_kwargs: EpochKwargs = None
        eval_kwargs: EpochKwargs = None
        if use_store:
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
            from collections import deque

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
            learning_rate=learning_rate,
            train_fraction=train_fraction,
            forward_kwargs=forward_kwargs,
            eval_kwargs=eval_kwargs,
            forward_params=forward_params,
        ))
    return results
