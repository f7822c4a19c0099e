"""The energy law: per-category attribution, merging, area report."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.energy import (
    EnergyBreakdown,
    EnergyConstants,
    area_report,
    run_energy,
)
from repro.stages.latency import StageActivity


def constants_of(per_replica=1, **activity):
    """One stage's constants on the default chip."""
    return EnergyConstants.of(
        DEFAULT_CONFIG, [per_replica], [StageActivity(**activity)],
    )


def one_stage_run(constants, makespan=0.0, busy=0.0, replicas=1):
    """A one-replica-per-crossbar run of one stage: its energy."""
    pipeline = SimpleNamespace(
        total_time_ns=makespan, stage_busy_ns=np.array([busy]),
    )
    return run_energy(
        constants, np.array([1]), np.array([replicas]), pipeline,
    )


def test_breakdown_total_and_merge():
    a = EnergyBreakdown(crossbar_read_pj=1.0, peripheral_pj=2.0)
    b = EnergyBreakdown(crossbar_write_pj=3.0, static_pj=4.0)
    a.merge(b)
    assert a.total_pj == pytest.approx(10.0)
    d = a.as_dict()
    assert d["total_pj"] == pytest.approx(10.0)
    assert d["crossbar_write_pj"] == 3.0


def test_crossbar_activity_energy_scaling():
    activity = dict(mvm_row_streams=10, rows_written=5)
    one = constants_of(1, **activity)
    two = constants_of(2, **activity)
    # Reads and peripherals scale with crossbars per replica; writes are
    # counted as row events and do not.
    assert one.crossbar_read_pj > 0 and one.peripheral_pj > 0
    assert two.crossbar_read_pj == pytest.approx(2 * one.crossbar_read_pj)
    assert two.peripheral_pj == pytest.approx(2 * one.peripheral_pj)
    assert two.crossbar_write_pj == pytest.approx(one.crossbar_write_pj)


def test_write_energy_per_row():
    out = constants_of(rows_written=7)
    assert out.crossbar_write_pj == pytest.approx(
        7 * DEFAULT_CONFIG.crossbar_write_energy_pj,
    )


def test_idle_energy_proportional():
    constants = constants_of()
    crossbar = DEFAULT_CONFIG.components["crossbar"].power_mw
    assert constants.idle_power_mw > (
        crossbar * DEFAULT_CONFIG.idle_power_fraction
    )
    one = one_stage_run(constants, makespan=1000.0).idle_leakage_pj
    assert one == pytest.approx(1000.0 * constants.idle_power_mw)
    assert one_stage_run(
        constants, makespan=2000.0,
    ).idle_leakage_pj == pytest.approx(2 * one)
    # Only the idle part of the makespan leaks, over the whole pool.
    assert one_stage_run(
        constants, makespan=2000.0, busy=1000.0, replicas=3,
    ).idle_leakage_pj == pytest.approx(3 * one)


def test_traffic_energies():
    constants = constants_of(buffer_bytes=100.0, offchip_bytes=100.0)
    assert constants.buffer_pj[0] == pytest.approx(
        100.0 * DEFAULT_CONFIG.buffer_access_energy_pj_per_byte,
    )
    assert constants.offchip_pj == pytest.approx(
        100.0 * DEFAULT_CONFIG.offchip_access_energy_pj_per_byte,
    )


def test_static_energy_uses_chip_components():
    expected_power = (
        DEFAULT_CONFIG.components["central_controller"].total_power_mw
        + DEFAULT_CONFIG.components["weight_computer"].total_power_mw
        + DEFAULT_CONFIG.components["activation_module"].total_power_mw
    )
    constants = constants_of()
    assert constants.static_power_mw == pytest.approx(expected_power)
    out = one_stage_run(constants, makespan=1000.0)
    assert out.static_pj == pytest.approx(1000.0 * expected_power)


def test_area_report_structure():
    report = area_report()
    assert report["pe_mm2"] > 0
    assert report["tile_mm2"] > report["pe_mm2"]
    assert report["chip_overhead_mm2"] > 0
