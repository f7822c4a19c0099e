"""Physical-unit helpers used across the hardware and pipeline models.

Internally the whole library uses a single convention:

* time is measured in **nanoseconds** (``float``),
* energy in **picojoules**,
* power in **milliwatts**.

These choices keep the numbers from Table II of the paper usable directly
(crossbar read 29.31 ns, write 50.88 ns, component powers in mW) while the
conversion helpers below make reporting in human units explicit at the
boundaries.

1 mW x 1 ns = 1 pJ, so a component's energy in pJ is its power in mW
times its busy time in ns, without any conversion factor; that identity
is the reason for this unit system.
"""

from __future__ import annotations

NS_PER_US = 1_000.0
NS_PER_MS = 1_000_000.0
NS_PER_S = 1_000_000_000.0

PJ_PER_NJ = 1_000.0
PJ_PER_UJ = 1_000_000.0
PJ_PER_MJ = 1_000_000_000.0
PJ_PER_J = 1_000_000_000_000.0


def ns_to_us(value_ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return value_ns / NS_PER_US


def ns_to_ms(value_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return value_ns / NS_PER_MS


def ns_to_s(value_ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return value_ns / NS_PER_S


def pj_to_nj(value_pj: float) -> float:
    """Convert picojoules to nanojoules."""
    return value_pj / PJ_PER_NJ

def pj_to_uj(value_pj: float) -> float:
    """Convert picojoules to microjoules."""
    return value_pj / PJ_PER_UJ


def pj_to_mj(value_pj: float) -> float:
    """Convert picojoules to millijoules."""
    return value_pj / PJ_PER_MJ


def pj_to_j(value_pj: float) -> float:
    """Convert picojoules to joules."""
    return value_pj / PJ_PER_J


def format_time(value_ns: float) -> str:
    """Render a duration with an auto-selected unit, e.g. ``'3.42 ms'``."""
    if value_ns < 0:
        raise ValueError(f"time must be non-negative, got {value_ns}")
    if value_ns < NS_PER_US:
        return f"{value_ns:.2f} ns"
    if value_ns < NS_PER_MS:
        return f"{ns_to_us(value_ns):.2f} us"
    if value_ns < NS_PER_S:
        return f"{ns_to_ms(value_ns):.2f} ms"
    return f"{ns_to_s(value_ns):.2f} s"


def format_energy(value_pj: float) -> str:
    """Render an energy with an auto-selected unit, e.g. ``'1.20 uJ'``."""
    if value_pj < 0:
        raise ValueError(f"energy must be non-negative, got {value_pj}")
    if value_pj < PJ_PER_NJ:
        return f"{value_pj:.2f} pJ"
    if value_pj < PJ_PER_UJ:
        return f"{pj_to_nj(value_pj):.2f} nJ"
    if value_pj < PJ_PER_MJ:
        return f"{pj_to_uj(value_pj):.2f} uJ"
    if value_pj < PJ_PER_J:
        return f"{pj_to_mj(value_pj):.2f} mJ"
    return f"{pj_to_j(value_pj):.2f} J"
