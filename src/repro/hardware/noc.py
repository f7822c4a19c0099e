"""Inter-tile interconnect model (the adders + pipeline bus of Fig. 8).

Tiles connect through adders and a pipeline bus that carry partial sums
and vertex features between stages.  The model is a 2-D mesh: tiles sit on
a ``side x side`` grid, a hop costs fixed latency and per-byte energy, and
a transfer's cost is its Manhattan hop distance times the hop costs.

The pipeline overlaps computation with communication (Section III-A), so
the accelerator models charge NoC *energy* for all traffic but latency
only for the non-overlappable pipeline-fill portion; this module provides
both quantities and an aggregate-traffic estimator for a stage handoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig


@dataclass(frozen=True)
class NocConfig:
    """Mesh interconnect parameters.

    Defaults follow common ReRAM-accelerator NoC assumptions: 1-cycle
    (~1 ns) routers, 32 bytes/ns links, ~0.1 pJ/byte/hop.
    """

    hop_latency_ns: float = 1.0
    hop_energy_pj_per_byte: float = 0.1
    link_bandwidth_bytes_per_ns: float = 32.0

    def __post_init__(self) -> None:
        if self.hop_latency_ns <= 0:
            raise ConfigError("hop_latency_ns must be positive")
        if self.hop_energy_pj_per_byte < 0:
            raise ConfigError("hop energy must be >= 0")
        if self.link_bandwidth_bytes_per_ns <= 0:
            raise ConfigError("link bandwidth must be positive")


def handoff_hops(
    crossbars_involved: int,
    crossbars_per_tile: int,
    mesh_hops: float,
) -> float:
    """Hop distance of a stage handoff out of a ``crossbars_involved`` pool.

    The pool's tiles form a square footprint whose side is the distance;
    it is capped at the mesh's average hop count ``mesh_hops``.
    """
    tiles = max(1, crossbars_involved // crossbars_per_tile)
    return min(float(max(1, math.isqrt(tiles))), mesh_hops)


class MeshNoc:
    """A 2-D mesh over the chip's tiles."""

    def __init__(
        self,
        hardware: HardwareConfig = DEFAULT_CONFIG,
        config: NocConfig = NocConfig(),
    ) -> None:
        self._hardware = hardware
        self._config = config
        self._side = max(1, int(math.isqrt(hardware.tiles_per_chip)))

    @property
    def side(self) -> int:
        """Mesh side length (tiles per row/column)."""
        return self._side

    @property
    def config(self) -> NocConfig:
        """Interconnect parameters."""
        return self._config

    def average_hops(self) -> float:
        """Mean hop distance between uniformly random tile pairs.

        For an n x n mesh the expected Manhattan distance is
        ``2 * (n^2 - 1) / (3n)`` (two independent 1-D terms).
        """
        n = self._side
        return 2.0 * (n * n - 1) / (3.0 * n)

    # ------------------------------------------------------------------
    def transfer_latency_ns(self, num_bytes: float, hops: float) -> float:
        """Head latency + serialisation for one transfer."""
        if num_bytes < 0 or hops < 0:
            raise ConfigError("bytes and hops must be >= 0")
        head = hops * self._config.hop_latency_ns
        serialisation = num_bytes / self._config.link_bandwidth_bytes_per_ns
        return head + serialisation

    def transfer_energy_pj(self, num_bytes: float, hops: float) -> float:
        """Per-byte-per-hop transfer energy."""
        if num_bytes < 0 or hops < 0:
            raise ConfigError("bytes and hops must be >= 0")
        return num_bytes * hops * self._config.hop_energy_pj_per_byte

    def stage_handoff_cost(
        self,
        num_bytes: float,
        crossbars_involved: int,
    ) -> tuple:
        """(latency_ns, energy_pj) of moving a stage's output onward.

        The producing pool spans ``crossbars_involved`` crossbars spread
        over tiles; the handoff distance is approximated by the mesh's
        average hop count scaled by the footprint's side (bigger pools
        reach further).
        """
        if crossbars_involved < 1:
            raise ConfigError("crossbars_involved must be >= 1")
        hops = handoff_hops(
            crossbars_involved, self._hardware.crossbars_per_tile,
            self.average_hops(),
        )
        return (
            self.transfer_latency_ns(num_bytes, hops),
            self.transfer_energy_pj(num_bytes, hops),
        )
