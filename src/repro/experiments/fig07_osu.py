"""Fig. 7: OSU (selection + index mapping) gives no write-cycle reduction.

Two parts:

* the paper's 8-vertex toy — degrees [300, 500, 250, 450, 2, 15, 10, 1],
  two 4-wordline crossbars: OSU still needs 4 cycles, ISU needs 2;
* the same comparison at dataset scale, using the update plans' serial
  write-cycle model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.mapping.selective import build_update_plan
from repro.runtime import current_session, experiment

TOY_DEGREES = (300, 500, 250, 450, 2, 15, 10, 1)


def toy_cycles() -> dict:
    """OSU vs ISU write cycles on the paper's 8-vertex example.

    Selection keeps the top-4 degrees {V1, V2, V3, V4}.  Index mapping
    puts V1-V4 on crossbar 1 (4 serial cycles); interleaved mapping
    alternates ranks across the two crossbars (2 serial cycles each).
    """
    degrees = np.array(TOY_DEGREES)
    important = np.argsort(-degrees)[:4]
    # Index mapping: vertex i -> crossbar i // 4.
    index_counts = np.zeros(2, dtype=int)
    np.add.at(index_counts, important // 4, 1)
    # Interleaved mapping: degree rank r -> crossbar r % 2.
    ranks = np.empty(8, dtype=int)
    ranks[np.argsort(-degrees)] = np.arange(8)
    interleaved_counts = np.zeros(2, dtype=int)
    np.add.at(interleaved_counts, ranks[important] % 2, 1)
    return {
        "no sparsification": 4,
        "OSU (index mapping)": int(index_counts.max()),
        "ISU (interleaved mapping)": int(interleaved_counts.max()),
    }


@experiment(
    "fig07",
    title="Selective updating write cycles: OSU vs ISU",
    datasets=("ddi", "proteins", "ppa"),
    cost_hint=0.0052,
    order=40,
)
def run(
    datasets: Sequence[str] = ("ddi", "proteins", "ppa"),
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Fig. 7's cycle counts, toy and dataset scale."""
    session = current_session()
    result = ExperimentResult(
        experiment_id="fig07",
        title="Selective updating write cycles: OSU vs ISU",
        notes=(
            "Write cycles = rows the busiest crossbar programs serially "
            "per update round (averaged over the minor-update period). "
            "OSU's cycles stay near the unsparsified count; ISU's drop "
            "by ~theta."
        ),
    )
    toy = toy_cycles()
    result.rows.append({
        "dataset": "toy (Fig. 7)",
        "full update cycles": toy["no sparsification"],
        "OSU cycles": toy["OSU (index mapping)"],
        "ISU cycles": toy["ISU (interleaved mapping)"],
    })
    for name in datasets:
        graph = session.graph(name, seed=seed)
        full = build_update_plan(graph, "full")
        osu = build_update_plan(graph, "osu")
        isu = build_update_plan(graph, "isu")
        result.rows.append({
            "dataset": name,
            "full update cycles": full.average_write_cycles(),
            "OSU cycles": osu.average_write_cycles(),
            "ISU cycles": isu.average_write_cycles(),
        })
    return result
