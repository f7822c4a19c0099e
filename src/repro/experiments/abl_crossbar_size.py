"""Ablation: crossbar-size design-space exploration.

The paper fixes 64x64 crossbars (Table II); ReGraphX argues for
heterogeneous sizes.  This sweep re-runs GoPIM and Serial with square
crossbars of different sizes under the *same array capacity*, exposing
the trade-off the fixed choice hides:

* small crossbars — fine-grained allocation and cheap row writes, but
  more row tiles serialise each MVM;
* large crossbars — fewer activations per MVM, but coarser replica
  granularity and costlier update rounds (more rows serialise per
  crossbar).
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerators.catalog import gopim, serial
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment

SIZE_GRID = (32, 64, 128)


@experiment(
    "abl-crossbar-size",
    title="Crossbar size design-space sweep",
    datasets=("ddi",),
    cost_hint=0.04,
    backends=("analytic", "trace"),
    order=180,
)
def run(
    dataset: str = "ddi",
    sizes: Sequence[int] = SIZE_GRID,
    seed: int = 0,
) -> ExperimentResult:
    """GoPIM speedup/energy vs square crossbar size."""
    session = current_session()
    workload = session.workload(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="abl-crossbar-size",
        title=f"Crossbar size design-space sweep ({dataset})",
        notes=(
            "Same 256 MB array capacity at every size; Table II's 64x64 "
            "default sits near the knee."
        ),
    )
    for size in sizes:
        config = session.config.scaled(
            crossbar_rows=size, crossbar_cols=size,
        )
        base = serial().run(workload, config)
        rep = gopim().run(workload, config)
        result.rows.append({
            "crossbar": f"{size}x{size}",
            "Serial time (ms)": base.total_time_ns / 1e6,
            "GoPIM time (ms)": rep.total_time_ns / 1e6,
            "speedup": base.total_time_ns / rep.total_time_ns,
            "energy saving": base.energy_pj / rep.energy_pj,
            "crossbars reserved": rep.crossbars_reserved,
        })
    return result
