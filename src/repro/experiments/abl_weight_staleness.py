"""Ablation: bounded weight staleness from inter-batch pipelining.

GoPIM's inter-batch parallelism keeps several batches in flight
("bounded staleness batches", Section VII-C's +PP discussion) — which, as
in PipeDream, means gradients are computed against weights ``D`` updates
old.  This study trains with explicitly delayed gradients and shows the
accuracy cost of small delays is negligible — the implicit assumption
behind pipelining training at all.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.harness import ExperimentResult, train_with_split
from repro.gcn.model import GCN
from repro.runtime import Session, default_session, experiment


@experiment(
    "abl-weight-staleness",
    title="Bounded weight staleness from pipelining",
    datasets=("arxiv",),
    cost_hint=12.0,
    quick={"delays": (0, 4), "epochs": 10},
    order=250,
)
def run(
    dataset: str = "arxiv",
    delays: Sequence[int] = (0, 1, 2, 4, 8),
    epochs: int = 30,
    seed: int = 0,
    scale: float = 1.0,
    session: Optional[Session] = None,
) -> ExperimentResult:
    """Accuracy vs gradient-staleness depth."""
    session = session or default_session()
    graph = session.graph(dataset, seed=seed, scale=scale)
    result = ExperimentResult(
        experiment_id="abl-weight-staleness",
        title=f"Bounded weight staleness from pipelining ({dataset})",
        notes=(
            "Gradients computed on weights D updates old (PipeDream-style "
            "inter-batch pipelining). Small D should cost almost nothing; "
            "large D slows convergence — the bound in 'bounded "
            "staleness'."
        ),
    )
    # One replica per delay, identical model/seed/split: a single
    # stacked pass replays every staleness depth at once.
    hidden_dim = 32
    models = [
        GCN(
            [(graph.feature_dim, hidden_dim),
             (hidden_dim, graph.num_classes)],
            random_state=seed,
        )
        for _ in delays
    ]
    accs = train_with_split(
        models, graph, epochs, seed, param_delays=list(delays),
    )
    baseline = None
    for delay, acc in zip(delays, accs):
        if baseline is None:
            baseline = acc
        result.rows.append({
            "delay (updates)": delay,
            "best accuracy": acc,
            "drop vs synchronous": baseline - acc,
        })
    return result
