"""Oracle for an accelerator run's energy: one breakdown per stage term.

:meth:`repro.accelerators.base.AcceleratorModel._energy` adds the
timing model's :class:`~repro.accelerators.base.EnergyConstants` to the
run's idle leakage and NoC handoff, field by field.  The loop here
prices every stage term through :class:`EnergyModel` and
:class:`MeshNoc` and merges the breakdowns in stage order, reading the
crossbars and activity totals straight from the timing model, as the
accelerator did before those terms moved into its timing tables.  The
two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.crossbar import CrossbarStats
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.hardware.noc import MeshNoc
from repro.pipeline.simulator import PipelineResult
from repro.stages.latency import StageTimingModel


def energy_reference(
    timing: StageTimingModel,
    pipeline: PipelineResult,
    replicas: np.ndarray,
) -> EnergyBreakdown:
    """Merge-per-term form of :meth:`AcceleratorModel._energy`."""
    config = timing.config
    model = EnergyModel(config)
    noc = MeshNoc(config)
    total = EnergyBreakdown()
    makespan = pipeline.total_time_ns
    busy = (pipeline.ends - pipeline.starts).sum(axis=1)
    for i, stage in enumerate(timing.stages):
        per_replica = timing.crossbars_per_replica(stage)
        act = timing.stage_activity_totals(stage)
        pool_size = int(replicas[i]) * per_replica
        stats = CrossbarStats()
        stats.mvm_reads = act.mvm_row_streams
        stats.row_writes = act.rows_written
        stats.busy_ns = stats.mvm_reads * config.mvm_latency_ns
        total.merge(model.crossbar_activity_energy(
            stats, crossbars_active=per_replica,
        ))
        idle_ns = max(0.0, makespan - float(busy[i])) * pool_size
        total.merge(model.idle_energy(idle_ns))
        total.merge(model.buffer_energy(act.buffer_bytes))
        total.merge(model.offchip_energy(act.offchip_bytes))
        _, noc_pj = noc.stage_handoff_cost(act.buffer_bytes, pool_size)
        total.merge(EnergyBreakdown(buffer_pj=noc_pj))
    total.merge(model.static_energy(makespan))
    return total
