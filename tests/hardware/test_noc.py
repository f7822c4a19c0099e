"""Mesh NoC model."""

import pytest

from repro.errors import ConfigError
from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.noc import MeshNoc, NocConfig


def test_mesh_side_from_tiles():
    noc = MeshNoc()
    assert noc.side == 256  # sqrt(65536)


def test_average_hops_formula():
    noc = MeshNoc()
    n = noc.side
    assert noc.average_hops() == pytest.approx(2 * (n * n - 1) / (3 * n))


def test_transfer_latency_components():
    cfg = NocConfig(hop_latency_ns=2.0, link_bandwidth_bytes_per_ns=16.0)
    noc = MeshNoc(config=cfg)
    # 3 hops head latency + 64 bytes serialisation at 16 B/ns.
    assert noc.transfer_latency_ns(64.0, 3) == pytest.approx(6.0 + 4.0)


def test_transfer_energy_scales():
    noc = MeshNoc()
    one = noc.transfer_energy_pj(100.0, 2)
    assert one == pytest.approx(
        100.0 * 2 * noc.config.hop_energy_pj_per_byte,
    )
    assert noc.transfer_energy_pj(200.0, 2) == pytest.approx(2 * one)


def test_stage_handoff_grows_with_footprint():
    noc = MeshNoc()
    small_lat, small_e = noc.stage_handoff_cost(1024.0, crossbars_involved=32)
    big_lat, big_e = noc.stage_handoff_cost(
        1024.0, crossbars_involved=64 * DEFAULT_CONFIG.crossbars_per_tile,
    )
    assert big_lat >= small_lat
    assert big_e >= small_e


def test_validation():
    with pytest.raises(ConfigError):
        NocConfig(hop_latency_ns=0.0)
    with pytest.raises(ConfigError):
        NocConfig(link_bandwidth_bytes_per_ns=0.0)
    noc = MeshNoc()
    with pytest.raises(ConfigError):
        noc.transfer_latency_ns(-1.0, 1)
    with pytest.raises(ConfigError):
        noc.stage_handoff_cost(10.0, 0)
