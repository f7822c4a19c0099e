"""Fig. 6: per-crossbar average vertex degree under index-based mapping.

The paper shows huge spreads (e.g. 1.6 to 2266.8 on proteins) — the
reason selective updating with index mapping (OSU) cannot balance write
load.  We report the min/max/mean per-crossbar average degree under index
mapping, and the same statistics under GoPIM's interleaved mapping to
show the balance ISU achieves.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import ExperimentResult
from repro.mapping.vertex_map import index_mapping, interleaved_mapping
from repro.runtime import current_session, experiment

FIG06_DATASETS = ("ddi", "collab", "ppa", "proteins", "arxiv", "products")


@experiment(
    "fig06",
    title="Average degree of vertices mapped on each crossbar",
    datasets=FIG06_DATASETS,
    cost_hint=0.0064,
    order=30,
)
def run(
    datasets: Sequence[str] = FIG06_DATASETS,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Fig. 6's per-crossbar degree spread on the session's
    crossbars."""
    session = current_session()
    rows = session.config.crossbar_rows
    result = ExperimentResult(
        experiment_id="fig06",
        title="Average degree of vertices mapped on each crossbar",
        notes=(
            "Index mapping spreads: paper reports 151.8-827.4 (ddi), "
            "1.6-2266.8 (proteins), 1-1716.9 (ppa). Interleaved columns "
            "show the balance GoPIM's mapping restores."
        ),
    )
    for name in datasets:
        graph = session.graph(name, seed=seed)
        indexed = index_mapping(graph.num_vertices, rows)
        interleaved = interleaved_mapping(graph, rows)
        idx_deg = indexed.average_degree_per_crossbar(graph)
        int_deg = interleaved.average_degree_per_crossbar(graph)
        result.rows.append({
            "dataset": name,
            "index min": float(idx_deg.min()),
            "index max": float(idx_deg.max()),
            "index spread": float(idx_deg.max() / max(idx_deg.min(), 1e-9)),
            "interleaved min": float(int_deg.min()),
            "interleaved max": float(int_deg.max()),
            "interleaved spread": float(
                int_deg.max() / max(int_deg.min(), 1e-9)
            ),
        })
    return result
