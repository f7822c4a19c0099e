"""ReRAM PIM hardware model (NeuroSim-style, Table II parameters).

Layers:

* :mod:`~repro.hardware.config` — all physical constants in one
  :class:`HardwareConfig`;
* :mod:`~repro.hardware.crossbar` — functional + cost model of a crossbar;
* :mod:`~repro.hardware.engine` — matrices programmed onto crossbar grids;
* :mod:`~repro.hardware.functional_gcn` — value-accurate GCN inference
  on those grids;
* :mod:`~repro.hardware.energy` — the energy law: per-component
  attribution, including the mesh handoff between stages;
* :mod:`~repro.hardware.endurance` — ReRAM write wear and array lifetime.
"""

from repro.hardware.config import (
    DEFAULT_CONFIG,
    ComponentSpec,
    HardwareConfig,
)
from repro.hardware.crossbar import Crossbar, CrossbarStats, quantize_symmetric
from repro.hardware.energy import EnergyBreakdown, area_report
from repro.hardware.endurance import (
    RERAM_ENDURANCE_WRITES,
    SRAM_ENDURANCE_WRITES,
    LifetimeReport,
    compare_schemes,
    estimate_lifetime,
)
from repro.hardware.engine import MappedMatrix
from repro.hardware.functional_gcn import FunctionalGCN

__all__ = [
    "DEFAULT_CONFIG",
    "ComponentSpec",
    "HardwareConfig",
    "Crossbar",
    "CrossbarStats",
    "quantize_symmetric",
    "EnergyBreakdown",
    "area_report",
    "MappedMatrix",
    "RERAM_ENDURANCE_WRITES",
    "SRAM_ENDURANCE_WRITES",
    "LifetimeReport",
    "compare_schemes",
    "estimate_lifetime",
    "FunctionalGCN",
]
