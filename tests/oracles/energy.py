"""Oracle for an accelerator run's energy: one breakdown per stage term.

:func:`repro.hardware.energy.run_energy` adds the timing model's
:class:`~repro.hardware.energy.EnergyConstants` to the run's idle
leakage and mesh handoff, field by field.  The loop here spells out
every stage term from the chip's config, reading the crossbars and
activity totals straight from the timing model, and merges one
breakdown per term in stage order, as the accelerator did before those
terms moved into its timing tables.  The two must agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.energy import EnergyBreakdown
from repro.pipeline.simulator import PipelineResult
from repro.stages.latency import StageTimingModel

#: The mesh's transfer energy, pJ per byte per hop.
HOP_PJ_PER_BYTE = 0.1


def _power_mw(config, keys) -> float:
    power = 0.0
    for key in keys:
        spec = config.components.get(key)
        if spec is not None:
            power += spec.total_power_mw
    return power


def mesh_hops(config) -> float:
    """Average hop distance between two tiles of the chip's square mesh."""
    side = max(1, int(math.isqrt(config.tiles_per_chip)))
    return 2.0 * (side * side - 1) / (3.0 * side)


def energy_reference(
    timing: StageTimingModel,
    pipeline: PipelineResult,
    replicas: np.ndarray,
) -> EnergyBreakdown:
    """Merge-per-term form of :func:`repro.hardware.energy.run_energy`."""
    config = timing.config
    peripheral_mw = _power_mw(config, (
        "adc", "dac", "sample_hold", "input_register", "output_register",
        "shift_add",
    )) / config.crossbars_per_pe
    idle_mw = (
        (config.components["crossbar"].power_mw + peripheral_mw)
        * config.idle_power_fraction
    )
    static_mw = _power_mw(config, (
        "central_controller", "weight_computer", "activation_module",
    ))
    mesh = mesh_hops(config)

    total = EnergyBreakdown()
    makespan = pipeline.total_time_ns
    busy = (pipeline.ends - pipeline.starts).sum(axis=1)
    for i, stage in enumerate(timing.stages):
        per_replica = timing.crossbars_per_replica(stage)
        act = timing.stage_activity_totals(stage)
        pool_size = int(replicas[i]) * per_replica
        busy_ns = act.mvm_row_streams * config.mvm_latency_ns
        total.merge(EnergyBreakdown(
            crossbar_read_pj=(
                act.mvm_row_streams * per_replica
                * config.crossbar_read_energy_pj * config.input_cycles
                * config.crossbar_rows
            ),
            crossbar_write_pj=(
                act.rows_written * config.crossbar_write_energy_pj
            ),
            peripheral_pj=busy_ns * peripheral_mw * per_replica,
        ))
        idle_ns = max(0.0, makespan - float(busy[i])) * pool_size
        total.merge(EnergyBreakdown(idle_leakage_pj=idle_ns * idle_mw))
        total.merge(EnergyBreakdown(
            buffer_pj=(
                act.buffer_bytes * config.buffer_access_energy_pj_per_byte
            ),
        ))
        total.merge(EnergyBreakdown(
            offchip_pj=(
                act.offchip_bytes * config.offchip_access_energy_pj_per_byte
            ),
        ))
        tiles = max(1, pool_size // config.crossbars_per_tile)
        hops = min(float(max(1, math.isqrt(tiles))), mesh)
        total.merge(EnergyBreakdown(
            buffer_pj=act.buffer_bytes * hops * HOP_PJ_PER_BYTE,
        ))
    total.merge(EnergyBreakdown(static_pj=makespan * static_mw))
    return total
