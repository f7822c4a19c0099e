"""Energy model (CACTI / NVSim style, per Section VII-A of the paper).

Energy is attributed three ways:

* **dynamic crossbar energy** — per MVM read and per row write, using the
  event counts accumulated in :class:`~repro.hardware.crossbar.CrossbarStats`;
* **peripheral busy energy** — ADC/DAC/S&H/S+A/buffer power integrated over
  the time their pool was busy;
* **idle leakage** — reserved-but-idle crossbar pools leak at
  ``idle_power_fraction`` of active power; this is why shorter pipelines
  save energy even though GoPIM activates more components (Fig. 14b).

All quantities are picojoules; 1 mW x 1 ns = 1 pJ (see :mod:`repro.units`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.errors import ConfigError
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.hardware.crossbar import CrossbarStats


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


# Peripheral power charged per *busy* crossbar, derived from the PE-level
# Table II entries: each crossbar's share of its PE's ADC/DAC/S&H/S+A and
# register power.
def _peripheral_power_per_crossbar_mw(config: HardwareConfig) -> float:
    per_pe = 0.0
    for key in ("adc", "dac", "sample_hold", "input_register",
                "output_register", "shift_add"):
        spec = config.components.get(key)
        if spec is not None:
            per_pe += spec.total_power_mw
    return per_pe / config.crossbars_per_pe


class EnergyModel:
    """Computes :class:`EnergyBreakdown` objects from activity records."""

    def __init__(self, config: HardwareConfig = DEFAULT_CONFIG) -> None:
        self._config = config
        self._peripheral_mw = _peripheral_power_per_crossbar_mw(config)
        self._crossbar_active_mw = config.components["crossbar"].power_mw

    @property
    def config(self) -> HardwareConfig:
        """The hardware configuration."""
        return self._config

    def crossbar_activity_energy(
        self,
        stats: CrossbarStats,
        crossbars_active: int = 1,
    ) -> EnergyBreakdown:
        """Energy of one pool's recorded activity.

        ``stats`` carries per-replica event counts; ``crossbars_active`` is
        how many crossbars fire per event (a replica spans several
        crossbars, all active together during an MVM).
        """
        if crossbars_active < 0:
            raise ConfigError("crossbars_active must be >= 0")
        cfg = self._config
        read_pj = (
            stats.mvm_reads * crossbars_active
            * cfg.crossbar_read_energy_pj * cfg.input_cycles
            * cfg.crossbar_rows
        )
        write_pj = stats.row_writes * cfg.crossbar_write_energy_pj
        peripheral_pj = (
            stats.busy_ns * self._peripheral_mw * crossbars_active
        )
        return EnergyBreakdown(
            crossbar_read_pj=read_pj,
            crossbar_write_pj=write_pj,
            peripheral_pj=peripheral_pj,
        )

    @property
    def idle_power_mw(self) -> float:
        """Leakage power of one reserved-but-idle crossbar (and its
        peripherals)."""
        return (
            (self._crossbar_active_mw + self._peripheral_mw)
            * self._config.idle_power_fraction
        )

    @property
    def static_power_mw(self) -> float:
        """Always-on chip infrastructure power (controller, weight
        computer, activation module)."""
        power_mw = 0.0
        for key in ("central_controller", "weight_computer",
                    "activation_module"):
            spec = self._config.components.get(key)
            if spec is not None:
                power_mw += spec.total_power_mw
        return power_mw

    def idle_energy(
        self,
        idle_crossbar_ns: float,
    ) -> EnergyBreakdown:
        """Leakage for ``idle_crossbar_ns`` crossbar-nanoseconds of idling."""
        if idle_crossbar_ns < 0:
            raise ConfigError("idle time must be >= 0")
        return EnergyBreakdown(
            idle_leakage_pj=idle_crossbar_ns * self.idle_power_mw,
        )

    def buffer_energy(self, bytes_moved: float) -> EnergyBreakdown:
        """On-chip global-buffer traffic energy."""
        if bytes_moved < 0:
            raise ConfigError("bytes_moved must be >= 0")
        return EnergyBreakdown(
            buffer_pj=bytes_moved * self._config.buffer_access_energy_pj_per_byte
        )

    def offchip_energy(self, bytes_moved: float) -> EnergyBreakdown:
        """Off-chip memory traffic energy."""
        if bytes_moved < 0:
            raise ConfigError("bytes_moved must be >= 0")
        return EnergyBreakdown(
            offchip_pj=bytes_moved * self._config.offchip_access_energy_pj_per_byte
        )

    def static_energy(self, duration_ns: float) -> EnergyBreakdown:
        """Always-on chip infrastructure (controller, weight computer)."""
        if duration_ns < 0:
            raise ConfigError("duration must be >= 0")
        return EnergyBreakdown(static_pj=duration_ns * self.static_power_mw)


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
