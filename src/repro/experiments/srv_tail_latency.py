"""srv_tail_latency: serving tail latency vs offered load.

The headline serving table: p50/p95/p99 end-to-end request latency on a
provisioned GoPIM serving system as the offered load climbs toward
saturation, under both a memoryless (Poisson) and a bursty (MMPP)
arrival process.  Each (process, load) cell replays the *same* unit
arrival pattern time-compressed to the target rate, so the queueing
delay grows monotonically with load (batch-formation wait shrinks, so
the end-to-end columns dip before blowing up near saturation) and the
Poisson/MMPP gap isolates burstiness.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.serving import ServingSpec, run_serving

FULL_LOADS = (0.4, 0.6, 0.8, 0.9, 0.97)


@experiment(
    "srv_tail_latency",
    title="Serving tail latency vs offered load",
    datasets=("ddi",),
    cost_hint=0.23,
    quick={"num_requests": 180_000, "loads": (0.5, 0.8, 0.95)},
    backends=("analytic", "trace"),
    order=300,
)
def run(
    dataset: str = "ddi",
    num_requests: int = 400_000,
    loads: Sequence[float] = FULL_LOADS,
    processes: Sequence[str] = ("poisson", "mmpp"),
    balancer: str = "jsq",
    seed: int = 0,
) -> ExperimentResult:
    """Sweep offered load under each arrival process."""
    session = current_session()
    result = ExperimentResult(
        experiment_id="srv_tail_latency",
        title=f"Serving tail latency vs offered load ({dataset})",
        notes=(
            "End-to-end request latency on the provisioned serving "
            "replicas; load is the offered rate as a fraction of the "
            "saturation capacity.  Each process replays one unit arrival "
            "pattern across all loads (batch-formation wait shrinks with "
            "load, queueing delay grows) and the mmpp rows isolate the "
            "cost of burstiness."
        ),
    )
    for process in processes:
        base = ServingSpec(
            dataset=dataset,
            num_requests=num_requests,
            process=process,
            balancer=balancer,
            seed=seed,
        )
        for load in loads:
            stats = run_serving(session, base.at_load(load)).stats
            result.rows.append({
                "process": process,
                "load": load,
                **stats.to_row(),
            })
    return result
