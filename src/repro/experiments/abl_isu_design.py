"""Ablation: ISU design choices (minor period, scope count, write pulses).

DESIGN.md calls out three calibration choices the paper fixes without a
sweep; this experiment sweeps each:

* **minor period** — the paper refreshes less-important vertices every 20
  epochs; the sweep shows the write-time / staleness trade-off;
* **scope count K** — interleaved mapping cuts the degree ranking into K
  scopes (paper uses crossbar-row granularity); fewer scopes lose balance;
* **write pulses** — the program-verify calibration constant; the sweep
  shows how the GoPIM-vs-Vanilla gap depends on it.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.base import AcceleratorModel
from repro.allocation.greedy import greedy_allocation
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.mapping.selective import build_update_plan
from repro.mapping.vertex_map import interleaved_mapping
from repro.pipeline.simulator import ScheduleMode
from repro.stages.latency import TimingParams


def minor_period_sweep(
    dataset: str = "ddi",
    periods: Sequence[int] = (1, 5, 10, 20, 40),
    seed: int = 0,
) -> ExperimentResult:
    """Average write cycles and rows per epoch vs the minor period."""
    graph = current_session().graph(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="abl-minor-period",
        title=f"ISU minor-update period sweep ({dataset})",
        notes="Paper fixes the period at 20 epochs.",
    )
    for period in periods:
        plan = build_update_plan(graph, "isu", minor_period=period)
        result.rows.append({
            "minor period": period,
            "avg write cycles": plan.average_write_cycles(),
            "rows written / epoch": plan.rows_written_per_epoch(),
        })
    return result


def scope_count_sweep(
    dataset: str = "proteins",
    scope_counts: Sequence[int] = (1, 2, 8, 64),
    seed: int = 0,
) -> ExperimentResult:
    """Per-crossbar degree balance vs the interleaving scope count K."""
    session = current_session()
    graph = session.graph(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="abl-scopes",
        title=f"Interleaved-mapping scope count sweep ({dataset})",
        notes=(
            "K = 1 degenerates to an arbitrary round-robin; K = rows per "
            "crossbar (the paper's choice) stratifies fully."
        ),
    )
    for k in scope_counts:
        mapping = interleaved_mapping(
            graph, session.config.crossbar_rows, num_scopes=k,
        )
        means = mapping.average_degree_per_crossbar(graph)
        result.rows.append({
            "scopes K": k,
            "per-crossbar degree std": float(means.std()),
            "spread (max/min)": float(means.max() / max(means.min(), 1e-9)),
        })
    return result


def write_pulse_sweep(
    dataset: str = "ddi",
    pulses: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
) -> ExperimentResult:
    """GoPIM-vs-Vanilla speedup gap vs the write-pulse calibration."""
    workload = current_session().workload(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="abl-write-pulses",
        title=f"Write-pulse calibration sweep ({dataset})",
        notes=(
            "More program-verify pulses make updates dearer and widen the "
            "ISU gap; the default of 2 matches the paper's internal "
            "replica-count/speedup consistency (DESIGN.md section 4)."
        ),
    )
    for p in pulses:
        params = TimingParams(write_pulses=p)
        vanilla = AcceleratorModel(
            name="Vanilla", schedule=ScheduleMode.INTRA_INTER,
            allocator=greedy_allocation, timing_params=params,
        ).run(workload)
        isu = AcceleratorModel(
            name="GoPIM", schedule=ScheduleMode.INTRA_INTER,
            allocator=greedy_allocation, update_strategy="isu",
            timing_params=params,
        ).run(workload)
        result.rows.append({
            "write pulses": p,
            "Vanilla time (us)": vanilla.total_time_ns / 1e3,
            "GoPIM time (us)": isu.total_time_ns / 1e3,
            "ISU gain": vanilla.total_time_ns / isu.total_time_ns,
        })
    return result


@experiment(
    "abl-isu",
    title="ISU design-choice ablations (minor period, scopes, pulses)",
    datasets=("ddi", "proteins"),
    cost_hint=0.11,
    backends=("analytic", "trace"),
    order=150,
)
def run(seed: int = 0) -> ExperimentResult:
    """All three ISU-design sweeps as one table."""
    combined = ExperimentResult(
        experiment_id="abl-isu",
        title="ISU design-choice ablations (minor period, scopes, pulses)",
    )
    for sub in (
        minor_period_sweep(seed=seed),
        scope_count_sweep(seed=seed),
        write_pulse_sweep(seed=seed),
    ):
        for row in sub.rows:
            combined.rows.append({"sweep": sub.experiment_id, **row})
    return combined
