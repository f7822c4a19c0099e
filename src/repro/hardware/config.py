"""Hardware configuration from Table II of the paper.

Everything downstream — crossbar counts, stage latencies, per-component
energies — is derived from one :class:`HardwareConfig` instance, so the
numbers from the paper live here and nowhere else.

The default configuration reproduces Table II exactly:

* 64x64 crossbars, 2 bits per cell, read 29.31 ns / write 50.88 ns
  (Niu et al., ICCAD'13, the paper's [37]);
* 32 crossbars per PE, 8 PEs per tile, 65,536 tiles per chip;
* 8-bit ADCs, 2-bit DACs, sample-and-hold and shift-and-add units;
* a 16 GB ReRAM array resource constraint (paper's [16], [24]);
* component power/area figures copied from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigError

#: ReRAM program-verify pulses per row write: the timing model's default
#: (``TimingParams.write_pulses``) and the wear one row write costs.
WRITE_PULSES = 2


@dataclass(frozen=True)
class ComponentSpec:
    """Power (mW) and area (mm^2) of one hardware component instance."""

    power_mw: float
    area_mm2: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.power_mw < 0 or self.area_mm2 < 0 or self.count < 0:
            raise ConfigError("component power/area/count must be >= 0")

    @property
    def total_power_mw(self) -> float:
        """Power of all instances together."""
        return self.power_mw * self.count

    @property
    def total_area_mm2(self) -> float:
        """Area of all instances together."""
        return self.area_mm2 * self.count


@dataclass(frozen=True)
class HardwareConfig:
    """Full accelerator configuration (Table II defaults).

    The fields group into: crossbar geometry and timing, hierarchy sizes,
    precision settings, and per-component power/area specs used by the
    energy model.
    """

    # Crossbar geometry / timing (Table II + [37]).
    crossbar_rows: int = 64
    crossbar_cols: int = 64
    bits_per_cell: int = 2
    read_latency_ns: float = 29.31
    write_latency_ns: float = 50.88

    # Precision.  Stored values occupy ``weight_bits / bits_per_cell`` cells;
    # the default of 4 bits (2 cells per value) reproduces Table VI's
    # crossbar counts exactly (32 crossbars per Combination replica and
    # ~534 per Aggregation replica on ddi: 256*256*2/4096 = 32,
    # 4267*256*2/4096 = 533.4).  Full 16-bit arithmetic precision comes
    # from streaming 16-bit inputs through the 2-bit DACs over
    # ``input_cycles`` passes.
    weight_bits: int = 4
    input_bits: int = 16
    dac_bits: int = 2
    adc_bits: int = 8

    # Hierarchy.
    crossbars_per_pe: int = 32
    pes_per_tile: int = 8
    tiles_per_chip: int = 65536

    # Resource constraint: 16 GB ReRAM array at 2 bits/cell.
    array_capacity_bytes: int = 16 * 1024 ** 3

    # Energy model knobs, calibrated so the energy *ratios* of Fig. 13b
    # hold at the reproduction's scaled-down workload sizes (see DESIGN.md
    # section 4 and EXPERIMENTS.md).
    crossbar_read_energy_pj: float = 0.284  # per wordline activation
    crossbar_write_energy_pj: float = 10_000.0  # per row-tile write pulse (~78 pJ/cell)
    idle_power_fraction: float = 0.03  # leakage fraction of active power
    buffer_access_energy_pj_per_byte: float = 0.8
    offchip_access_energy_pj_per_byte: float = 12.0
    offchip_bandwidth_gbps: float = 64.0

    # Per-component power/area (Table II).  Keys are stable identifiers used
    # by the energy model and the area report.
    components: Dict[str, ComponentSpec] = field(default_factory=lambda: {
        # PE level (per PE).  The ADC/DAC power cells of Table II are
        # garbled in the source text ("CA" / "0"); we substitute the
        # standard ISAAC-style figures (2 mW per 8-bit ADC, 4 uW per
        # 2-bit DAC) and keep Table II's counts and areas.
        "adc": ComponentSpec(power_mw=0.5, area_mm2=0.0384, count=32),
        "dac": ComponentSpec(power_mw=0.004, area_mm2=0.00034, count=32 * 64),
        "sample_hold": ComponentSpec(power_mw=0.005, area_mm2=0.00008,
                                     count=32 * 64),
        "crossbar": ComponentSpec(power_mw=6.2, area_mm2=0.00051, count=32),
        "input_register": ComponentSpec(power_mw=1.0, area_mm2=0.0038),
        "output_register": ComponentSpec(power_mw=0.2, area_mm2=0.0014),
        "shift_add": ComponentSpec(power_mw=0.2, area_mm2=0.00096, count=16),
        # Tile level (per tile).
        "input_buffer": ComponentSpec(power_mw=7.95, area_mm2=0.034),
        "crossbar_buffer": ComponentSpec(power_mw=59.42, area_mm2=0.208),
        "output_buffer": ComponentSpec(power_mw=1.28, area_mm2=0.0041),
        "nfu": ComponentSpec(power_mw=2.04, area_mm2=0.0024, count=8),
        "pfu": ComponentSpec(power_mw=3.2, area_mm2=0.00192, count=8),
        # Chip level.
        "weight_computer": ComponentSpec(power_mw=99.6, area_mm2=3.21),
        "activation_module": ComponentSpec(power_mw=0.0266, area_mm2=0.0030),
        "central_controller": ComponentSpec(power_mw=580.41, area_mm2=2.65),
    })

    def __post_init__(self) -> None:
        positive_fields = {
            "crossbar_rows": self.crossbar_rows,
            "crossbar_cols": self.crossbar_cols,
            "bits_per_cell": self.bits_per_cell,
            "read_latency_ns": self.read_latency_ns,
            "write_latency_ns": self.write_latency_ns,
            "weight_bits": self.weight_bits,
            "input_bits": self.input_bits,
            "dac_bits": self.dac_bits,
            "adc_bits": self.adc_bits,
            "crossbars_per_pe": self.crossbars_per_pe,
            "pes_per_tile": self.pes_per_tile,
            "tiles_per_chip": self.tiles_per_chip,
            "array_capacity_bytes": self.array_capacity_bytes,
            "offchip_bandwidth_gbps": self.offchip_bandwidth_gbps,
        }
        for field_name, value in positive_fields.items():
            if value <= 0:
                raise ConfigError(f"{field_name} must be positive, got {value}")
        if self.weight_bits % self.bits_per_cell != 0:
            raise ConfigError(
                "weight_bits must be divisible by bits_per_cell "
                f"({self.weight_bits} % {self.bits_per_cell})"
            )
        if self.input_bits % self.dac_bits != 0:
            raise ConfigError(
                "input_bits must be divisible by dac_bits "
                f"({self.input_bits} % {self.dac_bits})"
            )
        if not 0.0 <= self.idle_power_fraction <= 1.0:
            raise ConfigError("idle_power_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def cells_per_weight(self) -> int:
        """ReRAM cells needed to store one weight value."""
        return self.weight_bits // self.bits_per_cell

    @property
    def input_cycles(self) -> int:
        """DAC streaming cycles to feed one full-precision input value."""
        return self.input_bits // self.dac_bits

    @property
    def logical_cols(self) -> int:
        """Logical (value-level) columns per crossbar."""
        return self.crossbar_cols // self.cells_per_weight

    @property
    def cells_per_crossbar(self) -> int:
        """Raw cell count of one crossbar."""
        return self.crossbar_rows * self.crossbar_cols

    @property
    def crossbars_per_tile(self) -> int:
        """Crossbars in one tile."""
        return self.crossbars_per_pe * self.pes_per_tile

    @property
    def total_crossbars(self) -> int:
        """Crossbars implied by the 16 GB array capacity constraint.

        The paper bounds resources by array capacity, not by the (much
        larger) tile count, so this is the budget the allocator sees.
        """
        bytes_per_crossbar = self.cells_per_crossbar * self.bits_per_cell // 8
        return self.array_capacity_bytes // bytes_per_crossbar

    @property
    def mvm_latency_ns(self) -> float:
        """Latency of one full-precision MVM against one crossbar.

        Inputs stream through the DACs ``input_cycles`` times; each pass is
        one crossbar read.
        """
        return self.read_latency_ns * self.input_cycles

    @property
    def row_write_latency_ns(self) -> float:
        """Latency to (re)program one crossbar row with full-precision data.

        Writes within a crossbar are serial (paper Section III-B); a row of
        values at ``bits_per_cell`` granularity takes ``cells_per_weight``
        programming pulses.
        """
        return self.write_latency_ns * self.cells_per_weight

    def scaled(self, **overrides: object) -> "HardwareConfig":
        """Return a copy with some fields replaced (keyword arguments)."""
        return replace(self, **overrides)


DEFAULT_CONFIG = HardwareConfig()
