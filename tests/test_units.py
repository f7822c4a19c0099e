"""Unit-system helpers: conversions and formatting."""

import pytest

from repro import units


def test_time_conversions_roundtrip():
    assert units.ns_to_us(1500.0) == 1.5
    assert units.ns_to_ms(2_500_000.0) == 2.5
    assert units.ns_to_s(3_000_000_000.0) == 3.0


def test_energy_conversions():
    assert units.pj_to_nj(1500.0) == 1.5
    assert units.pj_to_uj(2_000_000.0) == 2.0
    assert units.pj_to_j(5e12) == 5.0


@pytest.mark.parametrize("value,expected", [
    (1.0, "1.00 ns"),
    (1500.0, "1.50 us"),
    (2_500_000.0, "2.50 ms"),
    (3_100_000_000.0, "3.10 s"),
])
def test_format_time(value, expected):
    assert units.format_time(value) == expected


@pytest.mark.parametrize("value,expected", [
    (1.0, "1.00 pJ"),
    (1500.0, "1.50 nJ"),
    (2_500_000.0, "2.50 uJ"),
    (3_100_000_000.0, "3.10 mJ"),
    (4.2e12, "4.20 J"),
])
def test_format_energy(value, expected):
    assert units.format_energy(value) == expected


def test_format_rejects_negative():
    with pytest.raises(ValueError):
        units.format_time(-1.0)
    with pytest.raises(ValueError):
        units.format_energy(-1.0)
