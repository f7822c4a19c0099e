"""The energy law (CACTI / NVSim style, per Section VII-A of the paper).

One accelerator run's energy is attributed to seven categories:

* **crossbar reads and writes**: every crossbar of one replica reads
  its rows for ``input_cycles`` bit-serial passes per MVM activation;
  each programmed row costs one write event;
* **peripheral busy energy**: each crossbar's share of its PE's
  ADC/DAC/S&H/S+A/register power, over the MVM latency of every
  activation;
* **buffer and off-chip traffic**, per byte moved, plus each stage's
  handoff over the 2-D mesh of tiles (the adders and pipeline bus of
  Fig. 8).  The pipeline overlaps that traffic with compute (Section
  III-A), so the mesh is charged as energy only;
* **idle leakage**: reserved-but-idle crossbar pools leak at
  ``idle_power_fraction`` of active power; this is why shorter pipelines
  save energy even though GoPIM activates more components (Fig. 14b);
* **static power**: the chip's controller, weight computer and
  activation module, over the makespan.

What no replica count changes is priced once per timing model
(:meth:`EnergyConstants.of`); :func:`run_energy` adds what a run's
replicas and schedule decide.  All quantities are picojoules;
1 mW x 1 ns = 1 pJ (see :mod:`repro.units`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig

#: Mesh transfer energy per byte per hop (a common ReRAM-accelerator
#: NoC assumption).
HOP_ENERGY_PJ_PER_BYTE = 0.1


@dataclass
class EnergyBreakdown:
    """Energy in pJ attributed per category; summable and mergeable."""

    crossbar_read_pj: float = 0.0
    crossbar_write_pj: float = 0.0
    peripheral_pj: float = 0.0
    buffer_pj: float = 0.0
    offchip_pj: float = 0.0
    idle_leakage_pj: float = 0.0
    static_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Total energy across all categories."""
        return (
            self.crossbar_read_pj + self.crossbar_write_pj
            + self.peripheral_pj + self.buffer_pj + self.offchip_pj
            + self.idle_leakage_pj + self.static_pj
        )

    def merge(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Accumulate another breakdown into this one (returns self)."""
        self.crossbar_read_pj += other.crossbar_read_pj
        self.crossbar_write_pj += other.crossbar_write_pj
        self.peripheral_pj += other.peripheral_pj
        self.buffer_pj += other.buffer_pj
        self.offchip_pj += other.offchip_pj
        self.idle_leakage_pj += other.idle_leakage_pj
        self.static_pj += other.static_pj
        return self

    def as_dict(self) -> Dict[str, float]:
        """Category-to-pJ mapping plus the total."""
        return {
            "crossbar_read_pj": self.crossbar_read_pj,
            "crossbar_write_pj": self.crossbar_write_pj,
            "peripheral_pj": self.peripheral_pj,
            "buffer_pj": self.buffer_pj,
            "offchip_pj": self.offchip_pj,
            "idle_leakage_pj": self.idle_leakage_pj,
            "static_pj": self.static_pj,
            "total_pj": self.total_pj,
        }


#: PE-level Table II components whose power a busy crossbar shares
#: with the other crossbars of its PE.
_PERIPHERALS = (
    "adc", "dac", "sample_hold", "input_register", "output_register",
    "shift_add",
)
#: Always-on chip infrastructure.
_CHIP_UNITS = ("central_controller", "weight_computer", "activation_module")


def _power_mw(config: HardwareConfig, keys) -> float:
    power_mw = 0.0
    for key in keys:
        spec = config.components.get(key)
        if spec is not None:
            power_mw += spec.total_power_mw
    return power_mw


def handoff_hops(
    crossbars_involved: int,
    crossbars_per_tile: int,
    mesh_hops: float,
) -> float:
    """Hop distance of a stage handoff out of a ``crossbars_involved`` pool.

    The pool's tiles form a square footprint whose side is the distance
    (bigger pools reach further); it is capped at the mesh's average hop
    count ``mesh_hops``.
    """
    tiles = max(1, crossbars_involved // crossbars_per_tile)
    return min(float(max(1, math.isqrt(tiles))), mesh_hops)


@dataclass(frozen=True)
class EnergyConstants:
    """The replica-independent part of one timing model's epoch energy.

    The crossbar read, write, peripheral and off-chip fields are the
    stage terms summed in stage order from 0.0.  ``buffer_pj`` and
    ``handoff_bytes`` stay per stage: a run adds each stage's buffer
    energy, then that stage's mesh handoff, whose hop count depends on
    its pool size.
    """

    crossbar_read_pj: float
    crossbar_write_pj: float
    peripheral_pj: float
    offchip_pj: float
    buffer_pj: Tuple[float, ...]
    handoff_bytes: Tuple[float, ...]
    idle_power_mw: float      # per reserved-but-idle crossbar
    static_power_mw: float    # always-on chip infrastructure
    crossbars_per_tile: int
    mesh_hops: float          # the mesh's average hop count

    @classmethod
    def of(
        cls,
        config: HardwareConfig,
        crossbars: Sequence[int],
        activities: Sequence,
    ) -> "EnergyConstants":
        """Price every stage's activity totals on ``config``.

        ``crossbars`` is each stage's crossbars per replica and
        ``activities`` its whole-epoch
        :class:`~repro.stages.latency.StageActivity` totals.

        Replica copies refresh round-robin (one copy per update round)
        rather than all at once, so replicas serve bounded-stale
        features, consistent with ISU's staleness budget, and write
        energy does not scale with the replica count.  ADC/DAC
        peripherals draw power while converting, i.e. during MVM
        activations: the busy integral is the logical activation count
        times the MVM latency, invariant to how many replicas or
        intrinsically-parallel tiles spread the work.  An idle crossbar
        and its peripherals leak ``idle_power_fraction`` of their
        active power.  The tiles sit on an ``n x n`` mesh,
        ``n = isqrt(tiles_per_chip)``, whose mean Manhattan distance
        between two tiles is ``2 (n^2 - 1) / (3n)``.
        """
        peripheral_mw = (
            _power_mw(config, _PERIPHERALS) / config.crossbars_per_pe
        )
        side = max(1, math.isqrt(config.tiles_per_chip))
        read_pj = write_pj = busy_pj = offchip_pj = 0.0
        for per_replica, act in zip(crossbars, activities):
            streams = act.mvm_row_streams
            read_pj += (
                streams * per_replica * config.crossbar_read_energy_pj
                * config.input_cycles * config.crossbar_rows
            )
            write_pj += act.rows_written * config.crossbar_write_energy_pj
            busy_pj += (
                streams * config.mvm_latency_ns * peripheral_mw * per_replica
            )
            offchip_pj += (
                act.offchip_bytes * config.offchip_access_energy_pj_per_byte
            )
        return cls(
            crossbar_read_pj=read_pj,
            crossbar_write_pj=write_pj,
            peripheral_pj=busy_pj,
            offchip_pj=offchip_pj,
            buffer_pj=tuple(
                act.buffer_bytes * config.buffer_access_energy_pj_per_byte
                for act in activities
            ),
            handoff_bytes=tuple(act.buffer_bytes for act in activities),
            idle_power_mw=(
                (config.components["crossbar"].power_mw + peripheral_mw)
                * config.idle_power_fraction
            ),
            static_power_mw=_power_mw(config, _CHIP_UNITS),
            crossbars_per_tile=config.crossbars_per_tile,
            mesh_hops=2.0 * (side * side - 1) / (3.0 * side),
        )


def run_energy(
    constants: EnergyConstants,
    crossbars: np.ndarray,
    replicas: np.ndarray,
    pipeline,
) -> EnergyBreakdown:
    """One run's energy: ``constants`` plus what the run's replicas and
    schedule decide.

    ``crossbars`` and ``replicas`` are each stage's crossbars per
    replica and replica count; ``pipeline`` is the run's
    :class:`~repro.pipeline.simulator.PipelineResult`.  Each pool leaks
    over the part of the makespan it is not busy, and each stage's
    handoff travels further out of a larger pool.  Each field adds its
    stage terms in stage order from 0.0 (``tests/oracles/energy.py``
    merges one breakdown per term instead).
    """
    makespan = pipeline.total_time_ns
    idle_pj = 0.0
    buffer_pj = 0.0
    for per_replica, copies, busy_ns, stage_buffer_pj, handoff in zip(
        crossbars.tolist(), replicas.tolist(),
        pipeline.stage_busy_ns.tolist(), constants.buffer_pj,
        constants.handoff_bytes,
    ):
        pool = copies * per_replica
        idle_pj += (
            max(0.0, makespan - busy_ns) * pool * constants.idle_power_mw
        )
        buffer_pj += stage_buffer_pj
        hops = handoff_hops(
            pool, constants.crossbars_per_tile, constants.mesh_hops,
        )
        buffer_pj += handoff * hops * HOP_ENERGY_PJ_PER_BYTE
    return EnergyBreakdown(
        crossbar_read_pj=constants.crossbar_read_pj,
        crossbar_write_pj=constants.crossbar_write_pj,
        peripheral_pj=constants.peripheral_pj,
        buffer_pj=buffer_pj,
        offchip_pj=constants.offchip_pj,
        idle_leakage_pj=idle_pj,
        static_pj=makespan * constants.static_power_mw,
    )


def area_report(config: HardwareConfig = DEFAULT_CONFIG) -> Dict[str, float]:
    """Area (mm^2) per component class for one tile plus chip-level units.

    Mirrors the area column of Table II; useful for sanity checks and the
    architecture overview in the README.
    """
    pe_level = ("adc", "dac", "sample_hold", "crossbar", "input_register",
                "output_register", "shift_add")
    tile_level = ("input_buffer", "crossbar_buffer", "output_buffer",
                  "nfu", "pfu")
    chip_level = ("weight_computer", "activation_module", "central_controller")

    report: Dict[str, float] = {}
    pe_area = sum(
        config.components[k].total_area_mm2 for k in pe_level
        if k in config.components
    )
    report["pe_mm2"] = pe_area
    report["tile_mm2"] = pe_area * config.pes_per_tile + sum(
        config.components[k].total_area_mm2 for k in tile_level
        if k in config.components
    )
    report["chip_overhead_mm2"] = sum(
        config.components[k].total_area_mm2 for k in chip_level
        if k in config.components
    )
    return report
