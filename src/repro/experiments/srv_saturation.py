"""srv_saturation: throughput saturation and the balancer gap.

Pushes the offered load through and past the provisioned capacity and
records where achieved throughput peels away from offered — the
saturation knee — alongside the p99 and queue-depth blow-up beyond it.
Run for both balancers: round-robin commits batches blindly, so one
slow (edge-heavy) batch backs up its server while others idle;
join-shortest-queue routes around the backlog and holds the knee
closer to capacity.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.serving import ServingSpec, run_serving

FULL_LOADS = (0.5, 0.7, 0.9, 1.0, 1.1, 1.25, 1.4)


@experiment(
    "srv_saturation",
    title="Serving throughput saturation vs offered load",
    datasets=("ddi",),
    cost_hint=0.062,
    quick={"num_requests": 60_000, "loads": (0.7, 1.0, 1.3)},
    backends=("analytic", "trace"),
    order=320,
)
def run(
    dataset: str = "ddi",
    num_requests: int = 250_000,
    loads: Sequence[float] = FULL_LOADS,
    process: str = "poisson",
    balancers: Sequence[str] = ("rr", "jsq"),
    seed: int = 0,
) -> ExperimentResult:
    """Sweep offered load through saturation for each balancer."""
    session = current_session()
    result = ExperimentResult(
        experiment_id="srv_saturation",
        title=f"Serving throughput saturation ({dataset})",
        notes=(
            "Loads above 1.0 offer more than the provisioned capacity; "
            "achieved throughput flattens at the saturation knee while "
            "p99 latency and queue depth grow without bound."
        ),
    )
    for balancer in balancers:
        base = ServingSpec(
            dataset=dataset,
            num_requests=num_requests,
            process=process,
            balancer=balancer,
            seed=seed,
        )
        for load in loads:
            row = run_serving(session, base.at_load(load)).stats.to_row()
            result.rows.append({
                "balancer": balancer,
                "load": load,
                "requests": row["requests"],
                "offered_rps": row["offered_rps"],
                "achieved_rps": row["achieved_rps"],
                "p99_ms": row["p99_ms"],
                "queue_depth": row["queue_depth"],
                "utilization": row["utilization"],
            })
    return result
