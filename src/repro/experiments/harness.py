"""Experiment result container, markdown rendering, the split harness.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.gcn.batched import train_split_replicas


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

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table (floats to three
        significant digits)."""
        cols = self.columns
        if not cols:
            return f"## {self.title}\n\n(no rows)\n"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3g}"
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
# The split harness (abl-model-family, abl-weight-staleness)
# ----------------------------------------------------------------------
TRAIN_FRACTION = 0.7  # the ablation split: 70% train, 30% test vertices


def split_vertices(num_vertices: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic sorted 70/30 train/test vertex split (the ablation split)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_vertices)
    cut = int(TRAIN_FRACTION * num_vertices)
    return np.sort(order[:cut]), np.sort(order[cut:])


def train_with_split(
    models: Sequence[Any],
    graph,
    epochs: int,
    seed: int,
    *,
    update_plans: Optional[Sequence[Any]] = None,
    param_delays: Optional[Sequence[int]] = None,
) -> List[float]:
    """Best test accuracy of each model, trained as one stacked fleet.

    The ablation studies that control staleness directly (outside
    :class:`~repro.gcn.trainer.NodeClassificationTrainer`) train here:
    the deterministic 70/30 :func:`split_vertices` split, then
    :func:`repro.gcn.batched.train_split_replicas` over the whole fleet
    — GCN or GraphSAGE, any size.  ``update_plans`` (one optional
    :class:`~repro.mapping.selective.UpdatePlan` per model) turns the
    stale-feature store on; ``param_delays`` (one per model) trains with
    PipeDream-style delayed gradients.
    """
    train_idx, test_idx = split_vertices(graph.num_vertices, seed)
    return train_split_replicas(
        graph, models, epochs, train_idx, test_idx,
        update_plans=update_plans, param_delays=param_delays,
    )
