"""Backend cross-validation: analytic vs trace on the headline figures.

The two simulation backends price the *same* replica assignment (the
allocator always consumes the analytic tables; see MODEL.md section 13),
so any speedup they report should rank systems identically even though
the trace backend's ceil-quantised lane model makes every absolute
number slightly larger.  This experiment re-runs the fig13 system
comparison, the fig14 technique ablation, and the fig17 dimension sweep
under both backends and

* reports the per-backend speedups side by side with absolute and
  relative deltas, and
* **asserts** that within each comparison group the speedup ordering is
  identical — a disagreement means one backend's model drifted and the
  run fails loudly rather than publishing inconsistent figures.

Serial pipelines replay to bitwise-identical times under both backends
(one lane divides its work exactly), so the Serial row of every group
doubles as a byte-identity canary: its delta column must be 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.accelerators.base import AcceleratorReport
from repro.accelerators.catalog import gopim, plus_isu, plus_pp, serial
from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.stages.workload import Workload

COMPARE_BACKENDS = ("analytic", "trace")
FIG13_DATASETS = ("ddi", "collab", "ppa")
FIG14_DATASETS = ("ddi", "proteins")
FIG17_DIMENSIONS = (256, 512, 1024, 2048)


def _speedups(
    reports: Dict[str, AcceleratorReport],
) -> Dict[str, float]:
    """Speedup vs the Serial report in the same backend's units."""
    base = reports["Serial"].total_time_ns
    return {
        name: base / report.total_time_ns
        for name, report in reports.items()
    }


def _ordering(speedups: Dict[str, float]) -> Tuple[str, ...]:
    """System names sorted fastest-first (the ranking being validated)."""
    return tuple(sorted(speedups, key=lambda name: -speedups[name]))


def _run_group(
    systems: Sequence,
    workload: Workload,
) -> Dict[str, Dict[str, AcceleratorReport]]:
    """Each backend's reports for one comparison group.

    The systems and workload are shared; only the backend each run is
    priced on changes between the two passes, so every delta in the
    output is attributable to the pricing engine alone.
    """
    return {
        backend: {
            acc.name: acc.run(workload, backend=backend)
            for acc in systems
        }
        for backend in COMPARE_BACKENDS
    }


def _emit_rows(
    result: ExperimentResult,
    panel: str,
    case: str,
    per_backend: Dict[str, Dict[str, AcceleratorReport]],
    disagreements: List[str],
) -> None:
    analytic = _speedups(per_backend["analytic"])
    trace = _speedups(per_backend["trace"])
    agrees = _ordering(analytic) == _ordering(trace)
    if not agrees:
        disagreements.append(
            f"{panel}/{case}: analytic ranks {_ordering(analytic)}, "
            f"trace ranks {_ordering(trace)}"
        )
    for name in analytic:
        a, t = analytic[name], trace[name]
        result.rows.append({
            "panel": panel,
            "case": case,
            "system": name,
            "analytic speedup": a,
            "trace speedup": t,
            "delta": t - a,
            "delta %": 100.0 * (t - a) / a,
            "ordering agrees": agrees,
        })


@experiment(
    "bke_cross_validation",
    title="Backend cross-validation: analytic vs trace speedup orderings",
    datasets=("ddi", "collab", "ppa", "proteins"),
    cost_hint=0.058,
    quick={
        "datasets": ("ddi",),
        "ablation_datasets": ("ddi",),
        "dimensions": (256, 1024),
    },
    backends=("analytic", "trace"),
    order=330,
)
def run(
    datasets: Sequence[str] = FIG13_DATASETS,
    ablation_datasets: Sequence[str] = FIG14_DATASETS,
    dimensions: Sequence[int] = FIG17_DIMENSIONS,
    seed: int = 0,
) -> ExperimentResult:
    """Cross-validate the backends on fig13/fig14/fig17-shaped groups."""
    from repro.accelerators.catalog import reflip, regraphx, slimgnn_like

    session = current_session()
    predictor = session.predictor(seed=seed)
    result = ExperimentResult(
        experiment_id="bke_cross_validation",
        title="Backend cross-validation: analytic vs trace speedup orderings",
        notes=(
            "Both backends price the allocator's replica assignment; the "
            "trace engine's lane quantisation only inflates absolutes. "
            "Identical per-group orderings are asserted, Serial deltas "
            "are exact zeros."
        ),
    )
    disagreements: List[str] = []

    # fig13-shaped panel: the full system comparison per dataset.
    for dataset in datasets:
        workload = session.workload(dataset, seed=seed)
        systems = (
            serial(), slimgnn_like(), regraphx(), reflip(),
            gopim(time_predictor=predictor),
        )
        _emit_rows(
            result, "fig13", dataset,
            _run_group(systems, workload), disagreements,
        )

    # fig14-shaped panel: the technique ablation per dataset.
    for dataset in ablation_datasets:
        workload = session.workload(dataset, seed=seed)
        systems = (
            serial(), plus_pp(), plus_isu(),
            gopim(time_predictor=predictor),
        )
        _emit_rows(
            result, "fig14", dataset,
            _run_group(systems, workload), disagreements,
        )

    # fig17-shaped panel: Serial vs GoPIM across feature dimensions.
    base_workload = session.workload("ddi", seed=seed)
    for dim in dimensions:
        dims = [(dim, dim) for _ in base_workload.layer_dims]
        workload = Workload(
            graph=base_workload.graph,
            layer_dims=dims,
            micro_batch=base_workload.micro_batch,
            name=f"ddi-d{dim}",
        )
        systems = (serial(), gopim(time_predictor=predictor))
        _emit_rows(
            result, "fig17", f"dim={dim}",
            _run_group(systems, workload), disagreements,
        )

    if disagreements:
        raise ExperimentError(
            "backend speedup orderings disagree:\n  "
            + "\n  ".join(disagreements)
        )
    return result
