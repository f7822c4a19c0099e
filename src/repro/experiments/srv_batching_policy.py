"""srv_batching_policy: batch-formation policies head to head.

Compares size-triggered, timeout-triggered, and hybrid batching at a
fixed operating point.  Size-only batching maximises crossbar
efficiency but lets the formation wait balloon whenever arrivals slow;
timeout-only bounds the wait but dispatches ragged batches under load;
hybrid takes whichever trigger fires first.  All policies consume the
identical arrival timeline and request sequence, so every difference in
the table is attributable to the policy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple

from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.serving import ServingSpec, run_serving

#: (kind, max_batch, timeout_us) triples of the compared policies.
POLICY_GRID: Tuple[Tuple[str, int, float], ...] = (
    ("size", 64, 50.0),
    ("timeout", 64, 20.0),
    ("timeout", 64, 50.0),
    ("hybrid", 64, 20.0),
    ("hybrid", 64, 50.0),
)


@experiment(
    "srv_batching_policy",
    title="Serving batching policies at fixed load",
    datasets=("ddi",),
    cost_hint=0.059,
    quick={"num_requests": 60_000},
    backends=("analytic", "trace"),
    order=310,
)
def run(
    dataset: str = "ddi",
    num_requests: int = 200_000,
    load: float = 0.8,
    process: str = "mmpp",
    policies: Sequence[Tuple[str, int, float]] = POLICY_GRID,
    seed: int = 0,
) -> ExperimentResult:
    """Run each batching policy over the same bursty arrival timeline."""
    session = current_session()
    base = ServingSpec(
        dataset=dataset,
        num_requests=num_requests,
        process=process,
        load=load,
        seed=seed,
    )
    result = ExperimentResult(
        experiment_id="srv_batching_policy",
        title=(
            f"Serving batching policies ({dataset}, {process} arrivals, "
            f"load {load:g})"
        ),
        notes=(
            "Identical arrival timeline under every policy; the batch "
            "columns show the efficiency/wait trade each trigger makes."
        ),
    )
    for kind, max_batch, timeout_us in policies:
        spec = replace(
            base, policy=kind, max_batch=max_batch, timeout_us=timeout_us,
        )
        run_result = run_serving(session, spec)
        result.rows.append({
            "policy": spec.batching_policy().label(),
            **run_result.stats.to_row(),
        })
    return result
