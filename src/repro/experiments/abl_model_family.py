"""Ablation: GoPIM across GNN model families (GCN vs GraphSAGE).

The paper evaluates "the most popular GCN models"; this study checks that
nothing in GoPIM is GCN-specific by running the full stack on GraphSAGE:

* hardware side — SAGE's Combination holds *two* weight matrices per
  layer (self + neighbour paths), doubling the CO footprint; the stage
  chain, the allocator, and ISU apply unchanged;
* accuracy side — the numpy GraphSAGE trains with the same staleness
  semantics, so the ISU impact can be compared across families.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.accelerators.catalog import gopim, serial
from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult, train_with_split
from repro.gcn.model import GCN
from repro.gcn.sage import GraphSAGE
from repro.mapping.selective import build_update_plan
from repro.runtime import Session, default_session, experiment
from repro.stages.workload import Workload


def sage_workload(base: Workload) -> Workload:
    """The Table IV workload reshaped for GraphSAGE's doubled CO weights."""
    dims: List[Tuple[int, int]] = [
        (2 * d_in, d_out) for d_in, d_out in base.layer_dims
    ]
    return Workload(
        graph=base.graph, layer_dims=dims,
        micro_batch=base.micro_batch, name=f"{base.name}-sage",
    )


@experiment(
    "abl-model-family",
    title="GoPIM across model families: GCN vs GraphSAGE",
    datasets=("arxiv",),
    cost_hint=10.0,
    quick={"epochs": 10},
    backends=("analytic", "trace"),
    order=260,
)
def run(
    dataset: str = "arxiv",
    epochs: int = 25,
    seed: int = 0,
    scale: float = 1.0,
    session: Optional[Session] = None,
) -> ExperimentResult:
    """Speedups and ISU accuracy impact for both model families."""
    if epochs < 1:
        raise ExperimentError("epochs must be >= 1")
    session = session or default_session()
    config = session.config
    base = session.workload(dataset, seed=seed, scale=scale)
    graph = base.graph
    result = ExperimentResult(
        experiment_id="abl-model-family",
        title=f"GoPIM across model families: GCN vs GraphSAGE ({dataset})",
        notes=(
            "Nothing in GoPIM is GCN-specific: SAGE doubles the CO weight "
            "footprint but keeps the same 4L stage structure, so the "
            "speedup and the benign ISU impact both carry over."
        ),
    )
    plan = build_update_plan(graph, "isu")
    hidden = 32
    for family, workload, model_fn in (
        ("GCN", base,
         lambda: GCN([(graph.feature_dim, hidden),
                      (hidden, graph.num_classes)], random_state=seed)),
        ("GraphSAGE", sage_workload(base),
         lambda: GraphSAGE([(graph.feature_dim, hidden),
                            (hidden, graph.num_classes)],
                           random_state=seed)),
    ):
        base_report = serial().run(workload, config)
        gopim_report = gopim().run(workload, config)
        # Full-update + ISU replicas share seed/dims/split: each family's
        # pair trains as one stacked fleet with the stale-feature store.
        full_acc, isu_acc = train_with_split(
            [model_fn(), model_fn()], graph, epochs, seed,
            update_plans=[None, plan],
        )
        result.rows.append({
            "family": family,
            "speedup vs Serial": (
                base_report.total_time_ns / gopim_report.total_time_ns
            ),
            "energy saving": (
                base_report.energy_pj / gopim_report.energy_pj
            ),
            "full-update acc": full_acc,
            "ISU acc": isu_acc,
            "ISU impact (points)": 100 * (isu_acc - full_acc),
        })
    return result
