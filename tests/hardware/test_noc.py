"""The mesh a stage's outputs cross to the next stage: hops and energy."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.energy import (
    HOP_ENERGY_PJ_PER_BYTE,
    EnergyConstants,
    handoff_hops,
    run_energy,
)
from repro.stages.latency import StageActivity


def mesh_hops(config=DEFAULT_CONFIG):
    return EnergyConstants.of(config, [], []).mesh_hops


def mean_distance(n):
    return 2 * (n * n - 1) / (3 * n)


def test_mesh_side_from_tiles():
    # 65536 tiles sit on a 256 x 256 mesh.
    assert mesh_hops() == pytest.approx(mean_distance(256))


def test_average_hops_formula():
    for tiles, side in ((4096, 64), (1000, 31), (2, 1)):
        config = DEFAULT_CONFIG.scaled(tiles_per_chip=tiles)
        assert mesh_hops(config) == pytest.approx(mean_distance(side))


def test_transfer_energy_scales():
    def handoff_pj(num_bytes):
        # A one-replica pool of one crossbar sits in one tile: one hop.
        constants = EnergyConstants.of(
            DEFAULT_CONFIG, [1], [StageActivity(buffer_bytes=num_bytes)],
        )
        pipeline = SimpleNamespace(
            total_time_ns=0.0, stage_busy_ns=np.array([0.0]),
        )
        run = run_energy(constants, np.array([1]), np.array([1]), pipeline)
        return run.buffer_pj - constants.buffer_pj[0]

    one = handoff_pj(100.0)
    assert one == pytest.approx(100.0 * HOP_ENERGY_PJ_PER_BYTE)
    assert handoff_pj(200.0) == pytest.approx(2 * one)


def test_stage_handoff_grows_with_footprint():
    per_tile = DEFAULT_CONFIG.crossbars_per_tile
    mesh = mesh_hops()
    small = handoff_hops(32, per_tile, mesh)
    big = handoff_hops(64 * per_tile, per_tile, mesh)
    assert (small, big) == (1.0, 8.0)
    # A pool wider than the mesh's average distance is capped there.
    assert handoff_hops(10 ** 9, per_tile, mesh) == mesh
