"""Fig. 5: the three-way replica allocation example, reproduced exactly.

Two stages with execution times 1 and 6 units, batches of two
micro-batches, three unused crossbars to spend:

* (a) no replicas — makespan **52** units over 4 batches;
* (b) ReGraphX's 1:2 split (1 crossbar to stage 1, 2 to stage 2) —
  stage times become 0.5 and 2; makespan **18** (saves 34, ~65.4%);
* (c) all three to stage 2 — stage times 1 and 1.5; makespan **16**
  (saves 36, ~69.2%).

These integers match the paper's figure exactly under the intra-batch
drain semantics of our pipeline simulator, which is why this example
doubles as a validation test of the scheduler.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.pipeline.simulator import ScheduleMode, simulate_pipeline
from repro.runtime import experiment

NUM_MICROBATCHES = 8
MICROBATCHES_PER_BATCH = 2
STAGE1_TIME = 1.0
STAGE2_TIME = 6.0


def makespan_for(stage1_replicas: int, stage2_replicas: int) -> float:
    """Makespan of the toy pipeline under a replica split."""
    times = np.tile(
        [[STAGE1_TIME / (1 + stage1_replicas)],
         [STAGE2_TIME / (1 + stage2_replicas)]],
        (1, NUM_MICROBATCHES),
    )
    result = simulate_pipeline(
        times,
        mode=ScheduleMode.INTRA_BATCH,
        microbatches_per_batch=MICROBATCHES_PER_BATCH,
    )
    return result.total_time_ns


@experiment(
    "fig05",
    title="Unused-crossbar allocation example",
    cost_hint=0.00062,
    order=20,
)
def run() -> ExperimentResult:
    """Reproduce Fig. 5's 52 / 18 / 16 unit makespans."""
    baseline = makespan_for(0, 0)
    regraphx = makespan_for(1, 2)
    all_stage2 = makespan_for(0, 3)
    result = ExperimentResult(
        experiment_id="fig05",
        title="Unused-crossbar allocation example (Fig. 5)",
        notes=(
            "Paper values: (a) 52 units, (b) saves 34 (~65.4%), "
            "(c) saves 36 (~69.2%)."
        ),
    )
    for label, makespan in (
        ("(a) no replicas", baseline),
        ("(b) ReGraphX 1:2 split", regraphx),
        ("(c) all three to stage 2", all_stage2),
    ):
        result.rows.append({
            "allocation": label,
            "makespan (units)": makespan,
            "time saved (units)": baseline - makespan,
            "improvement %": round(100.0 * (baseline - makespan) / baseline, 1),
        })
    return result
