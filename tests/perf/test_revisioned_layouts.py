"""Each revisioned artifact's layout, pinned beside its revision.

A ``"timing-tables"`` or ``"trace_programs"`` entry's key carries a
layout revision, so a disk tier written by older code is never read
back, but only if every layout change bumps the revision.  Each test
pins, literally, a revision together with the layout it names: change
the layout and the test fails until the revision and the pin move
together.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.accelerators import base
from repro.backends import trace
from repro.stages.latency import StageTimingModel

TIMING_TABLES = (
    "hardware-energy-constants-v3",
    ["caps", "crossbars", "energy", "floors", "mean_times"],
    "repro.hardware.energy.EnergyConstants",
    [
        "crossbar_read_pj", "crossbar_write_pj", "peripheral_pj",
        "offchip_pj", "buffer_pj", "handoff_bytes", "idle_power_mw",
        "static_power_mw", "crossbars_per_tile", "mesh_hops",
    ],
)

TRACE_PROGRAMS = (
    "epoch-records-and-stage-op-totals-v2",
    [
        ("stage", "<i4"), ("opcode", "|u1"), ("mb", "<i4"), ("tile", "<i4"),
        ("count", "<f8"), ("unit_ns", "<f8"), ("dep", "|u1"),
    ],
    [
        "instructions", "mvm_activations", "scan_reads",
        "write_rows_partial", "write_rows_full", "reload_rows",
    ],
)


def test_the_timing_tables_layout_is_its_revision(
    small_workload, small_config,
):
    timing = StageTimingModel(small_workload, config=small_config)
    tables = base.AcceleratorModel._timing_tables(timing)
    energy = type(tables["energy"])
    assert (
        base._TABLES_REVISION,
        sorted(tables),
        f"{energy.__module__}.{energy.__qualname__}",
        [field.name for field in dataclasses.fields(energy)],
    ) == TIMING_TABLES


def test_the_trace_program_layout_is_its_revision():
    assert (
        trace._PROGRAM_REVISION,
        trace.TRACE_DTYPE.descr,
        list(trace.program_stats(np.empty(0, trace.TRACE_DTYPE))),
    ) == TRACE_PROGRAMS
