"""Fig. 15: crossbar idle percentage, Naive vs GoPIM, per micro-batch size.

The paper shows GoPIM cutting the average idle percentage by ~47-52
points on ddi for micro-batch sizes 32/64/128.  ``Naive`` is a pipelined
accelerator with index mapping and no replicas.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerators.catalog import gopim, naive_pipeline
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment


@experiment(
    "fig15",
    title="Crossbar idle percentage vs micro-batch size",
    datasets=("ddi",),
    cost_hint=0.041,
    backends=("analytic", "trace"),
    order=80,
)
def run(
    dataset: str = "ddi",
    micro_batches: Sequence[int] = (32, 64, 128),
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Fig. 15's idle-percentage comparison."""
    session = current_session()
    predictor = session.predictor(seed=seed)
    result = ExperimentResult(
        experiment_id="fig15",
        title=f"Crossbar idle percentage vs micro-batch size ({dataset})",
        notes=(
            "Paper: GoPIM reduces average idle percentage by 46.75 / 49.75 "
            "/ 51.75 points at micro-batch 32 / 64 / 128."
        ),
    )
    for mb in micro_batches:
        workload = session.workload(dataset, seed=seed, micro_batch=mb)
        naive_report = naive_pipeline().run(workload)
        gopim_report = gopim(time_predictor=predictor).run(workload)
        naive_idle = 100.0 * float(np.mean(naive_report.idle_fractions()))
        gopim_idle = 100.0 * float(np.mean(gopim_report.idle_fractions()))
        result.rows.append({
            "micro-batch": mb,
            "Naive avg idle %": round(naive_idle, 2),
            "GoPIM avg idle %": round(gopim_idle, 2),
            "reduction (points)": round(naive_idle - gopim_idle, 2),
        })
    return result
