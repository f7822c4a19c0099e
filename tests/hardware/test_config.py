"""HardwareConfig: Table II values, derived quantities, validation."""

import pytest

from repro.errors import ConfigError
from repro.hardware.config import DEFAULT_CONFIG, ComponentSpec, HardwareConfig


def test_table_ii_defaults():
    cfg = DEFAULT_CONFIG
    assert cfg.crossbar_rows == 64 and cfg.crossbar_cols == 64
    assert cfg.bits_per_cell == 2
    assert cfg.read_latency_ns == pytest.approx(29.31)
    assert cfg.write_latency_ns == pytest.approx(50.88)
    assert cfg.crossbars_per_pe == 32
    assert cfg.pes_per_tile == 8
    assert cfg.tiles_per_chip == 65536
    assert cfg.adc_bits == 8 and cfg.dac_bits == 2


def test_derived_quantities():
    cfg = DEFAULT_CONFIG
    assert cfg.cells_per_weight == 2
    assert cfg.input_cycles == 8
    assert cfg.logical_cols == 32
    assert cfg.cells_per_crossbar == 4096
    assert cfg.crossbars_per_tile == 256
    assert cfg.mvm_latency_ns == pytest.approx(8 * 29.31)
    assert cfg.row_write_latency_ns == pytest.approx(2 * 50.88)


def test_total_crossbars_from_capacity():
    # 16 GiB at 1 KiB per crossbar (4096 cells x 2 bits).
    assert DEFAULT_CONFIG.total_crossbars == 16 * 1024 ** 3 // 1024


def test_table_vi_crossbar_counts():
    # The mapping geometry reproduces Table VI: a 256x256 weight matrix
    # takes 32 crossbars; ddi's 4267x256 feature matrix ~534.
    from repro.mapping.tiling import plan_tiling

    assert plan_tiling(256, 256).num_crossbars == 32
    assert plan_tiling(4267, 256).num_crossbars == 67 * 8  # grid form of ~534


def test_scaled_override():
    cfg = DEFAULT_CONFIG.scaled(array_capacity_bytes=1024 ** 2)
    assert cfg.total_crossbars == 1024
    assert cfg.crossbar_rows == DEFAULT_CONFIG.crossbar_rows


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        HardwareConfig(crossbar_rows=0)
    with pytest.raises(ConfigError):
        HardwareConfig(weight_bits=3)  # not divisible by 2 bits/cell
    with pytest.raises(ConfigError):
        HardwareConfig(input_bits=15)  # not divisible by dac_bits
    with pytest.raises(ConfigError):
        HardwareConfig(idle_power_fraction=1.5)


def test_component_spec_totals():
    spec = ComponentSpec(power_mw=2.0, area_mm2=0.01, count=4)
    assert spec.total_power_mw == 8.0
    assert spec.total_area_mm2 == pytest.approx(0.04)
    with pytest.raises(ConfigError):
        ComponentSpec(power_mw=-1.0, area_mm2=0.0)


def test_component_catalog_complete():
    keys = set(DEFAULT_CONFIG.components)
    assert {"adc", "dac", "sample_hold", "crossbar", "input_buffer",
            "crossbar_buffer", "output_buffer", "weight_computer",
            "activation_module", "central_controller"} <= keys
