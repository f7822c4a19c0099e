"""Fig. 9: predictor model selection (families, MLP depth, hidden width).

Three sweeps over a shared generated dataset:

* (a) held-out RMSE per model family — the MLP should win;
* (b) RMSE vs MLP layer count — three layers should be (near) best;
* (c) RMSE vs hidden width for the three-layer MLP — 256 should be
  (near) best.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.predictor.dataset import PredictorDataset, generate_dataset
from repro.predictor.evaluate import (
    compare_models,
    sweep_mlp_depth,
    sweep_mlp_width,
)
from repro.runtime import experiment


@experiment(
    "fig09",
    title="Execution-time predictor RMSE",
    cost_hint=41.0,
    quick={"num_samples": 400},
    order=50,
)
def run(
    num_samples: int = 1200,
    seed: int = 0,
    depths: Sequence[int] = (2, 3, 4, 5, 6),
    widths: Sequence[int] = (32, 64, 128, 256, 512),
    dataset: Optional[PredictorDataset] = None,
) -> ExperimentResult:
    """Reproduce all three Fig. 9 panels as one table."""
    if dataset is None:
        dataset = generate_dataset(num_samples=num_samples, random_state=seed)
    result = ExperimentResult(
        experiment_id="fig09",
        title="Execution-time predictor RMSE (model zoo, depth, width)",
        notes=(
            "Panel (a): model families; (b): MLP depth sweep; (c): hidden "
            "width sweep. Paper: MLP wins, 3 layers and 256 neurons best."
        ),
    )
    for name, rmse in sorted(
        compare_models(dataset=dataset, random_state=seed).items(),
        key=lambda item: item[1],
    ):
        result.rows.append({"panel": "a", "config": name, "rmse": rmse})
    for depth, rmse in sweep_mlp_depth(
        depths=depths, dataset=dataset, random_state=seed,
    ).items():
        result.rows.append({
            "panel": "b", "config": f"{depth}-layer MLP", "rmse": rmse,
        })
    for width, rmse in sweep_mlp_width(
        widths=widths, dataset=dataset, random_state=seed,
    ).items():
        result.rows.append({
            "panel": "c", "config": f"256x{width} hidden", "rmse": rmse,
        })
    return result
