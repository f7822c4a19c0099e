"""Ablation: multi-tenant chip scheduling (the predictor's cluster story).

With several GCN jobs sharing one chip, the crossbar budget must be split
before each job's own Algorithm 1 runs inside its share.  Compares the
naive equal split against the predictor-driven marginal-gain split on a
mixed job set (one heavy, one light) and reports the min-max completion
time each achieves.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.scheduler import MultiTenantScheduler
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment


@experiment(
    "abl-scheduler",
    title="Multi-tenant chip scheduling: equal vs greedy split",
    datasets=("ddi", "cora"),
    cost_hint=0.18,
    order=240,
)
def run(
    datasets: Sequence[str] = ("ddi", "cora"),
    seed: int = 0,
) -> ExperimentResult:
    """Equal vs greedy chip split over a mixed job set."""
    session = current_session()
    workloads = [session.workload(name, seed=seed) for name in datasets]
    scheduler = MultiTenantScheduler(
        time_predictor=session.predictor(seed=seed),
    )
    result = ExperimentResult(
        experiment_id="abl-scheduler",
        title="Multi-tenant chip scheduling: equal vs greedy split",
        notes=(
            "The greedy split steers budget to the dominating job, so its "
            "completion time (slowest job) never exceeds the equal "
            "split's."
        ),
    )
    for outcome in (
        scheduler.equal_split(workloads),
        scheduler.greedy_split(workloads),
    ):
        for placement in outcome.placements:
            result.rows.append({
                "policy": outcome.policy,
                "job": placement.workload_name,
                "budget (crossbars)": placement.budget,
                "makespan (ms)": placement.makespan_ns / 1e6,
            })
        result.rows.append({
            "policy": outcome.policy,
            "job": "(completion)",
            "budget (crossbars)": sum(
                p.budget for p in outcome.placements
            ),
            "makespan (ms)": outcome.slowest_ns / 1e6,
        })
    return result
