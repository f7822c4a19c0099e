"""Fig. 17: scalability — vertex feature dimension and the products dataset.

* (a) GoPIM's speedup vs Serial as the feature dimension grows 256 -> 2048
  on a ddi-like workload: speedups persist but taper, because larger
  dimensions need more crossbars per replica;
* (b) the largest dataset (products): paper reports 5.9x speedup and 1.8x
  energy saving vs Serial.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.catalog import gopim, serial
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.stages.workload import Workload

DIMENSION_GRID = (256, 512, 1024, 2048)


@experiment(
    "fig17",
    title="Scalability: feature dimension sweep and the products dataset",
    datasets=("ddi", "products"),
    cost_hint=0.048,
    backends=("analytic", "trace"),
    order=100,
)
def run(
    dimensions: Sequence[int] = DIMENSION_GRID,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce both Fig. 17 panels."""
    session = current_session()
    predictor = session.predictor(seed=seed)
    result = ExperimentResult(
        experiment_id="fig17",
        title="Scalability: feature dimension sweep and the products dataset",
        notes=(
            "Paper: speedups taper as dimensions grow (more crossbars per "
            "replica); products reaches 5.9x speedup / 1.8x energy saving."
        ),
    )
    base_workload = session.workload("ddi", seed=seed)
    for dim in dimensions:
        dims = [(dim, dim) for _ in base_workload.layer_dims]
        workload = Workload(
            graph=base_workload.graph,
            layer_dims=dims,
            micro_batch=base_workload.micro_batch,
            name=f"ddi-d{dim}",
        )
        base = serial().run(workload)
        rep = gopim(time_predictor=predictor).run(workload)
        result.rows.append({
            "panel": "a (dimension)",
            "config": f"dim={dim}",
            "speedup": base.total_time_ns / rep.total_time_ns,
            "energy saving": base.energy_pj / rep.energy_pj,
        })

    products = session.workload("products", seed=seed)
    base = serial().run(products)
    rep = gopim(time_predictor=predictor).run(products)
    result.rows.append({
        "panel": "b (products)",
        "config": "products",
        "speedup": base.total_time_ns / rep.total_time_ns,
        "energy saving": base.energy_pj / rep.energy_pj,
    })
    return result
