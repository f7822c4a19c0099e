"""Ablation: hardware time-to-accuracy, GoPIM vs Vanilla vs Serial.

The paper reports speedup and accuracy separately; this experiment couples
them through the co-simulator: train the same model under each
accelerator's update schedule, charge each epoch's simulated hardware
time, and report the hardware time needed to first reach a target test
metric.  The interesting question ISU raises — does staleness cost enough
epochs to erode the per-epoch speedup? — is answered directly (it does
not, matching Table V's benign accuracy deltas).
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.catalog import gopim, gopim_vanilla, serial
from repro.core.cosim import CoSimulation
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment


@experiment(
    "abl-tta",
    title="Hardware time-to-accuracy",
    datasets=("arxiv",),
    cost_hint=0.15,
    quick={"epochs": 8},
    backends=("analytic", "trace"),
    order=160,
)
def run(
    dataset: str = "arxiv",
    epochs: int = 20,
    targets: Sequence[float] = (0.5, 0.7),
    seed: int = 0,
) -> ExperimentResult:
    """Time-to-accuracy comparison on one dataset."""
    graph = current_session().graph(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="abl-tta",
        title=f"Hardware time-to-accuracy ({dataset})",
        notes=(
            "Couples Fig. 13's speedups with Table V's accuracy: ISU's "
            "staleness must not cost more epochs than its per-epoch "
            "speedup saves."
        ),
    )
    for accelerator in (serial(), gopim_vanilla(), gopim()):
        cosim = CoSimulation(accelerator)
        run_result = cosim.run(
            graph, dataset, epochs=epochs, random_state=seed,
        )
        row = {
            "system": accelerator.name,
            "best accuracy": run_result.best_test_metric,
            "total time (ms)": run_result.total_time_ns / 1e6,
        }
        for target in targets:
            reached = run_result.time_to_accuracy_ns(target)
            row[f"time to {target:.0%} (ms)"] = (
                None if reached is None else reached / 1e6
            )
        result.rows.append(row)
    return result
