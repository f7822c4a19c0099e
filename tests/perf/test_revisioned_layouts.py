"""Each revisioned artifact's layout, pinned beside its revision.

A ``"timing-tables"`` or ``"trace_programs"`` entry's key carries a
layout revision, so a disk tier written by older code is never read
back, but only if every layout change bumps the revision.  Each test
pins, literally, a revision together with the layout it names: change
the layout and the test fails until the revision and the pin move
together.  A ``"training"`` entry holds what a run computes, so its
revision is pinned beside a digest of the code a training run executes.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
import textwrap

import numpy as np

from repro.accelerators import base
from repro.backends import trace
from repro.gcn import batched, losses, model, optim
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan
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

TRAINING = (
    "one-configuration-v1",
    "410f179431ff9d1fe5e634b94ff08d3ee3e046893025736e0fddb4559ddd8bd6",
)

# The Graph and UpdatePlan members a training run calls, directly or
# through one another.
GRAPH_MEMBERS = (
    "num_vertices", "degrees", "features", "labels", "feature_dim",
    "num_classes", "cached", "_source_indices", "_adjacency_csr",
    "_mean_scale", "_inv_sqrt_degree", "_check_rows", "adjacency_matmul",
    "mean_adjacency_matmul", "normalized_adjacency_matmul", "edge_list",
)
PLAN_MEMBERS = ("is_update_epoch_for_minor", "vertices_updated_at")


def _canonical(node) -> str:
    """The tree as text, docstrings dropped; empty and absent fields are
    skipped so the text reads the same on every supported Python."""
    if isinstance(node, list):
        return "[" + ",".join(_canonical(item) for item in node) + "]"
    if not isinstance(node, ast.AST):
        return repr(node)
    body = getattr(node, "body", None)
    if (
        isinstance(body, list) and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        node.body = body[1:]
    fields = [
        f"{name}={_canonical(value)}"
        for name, value in ast.iter_fields(node)
        if value is not None and value != []
    ]
    return f"{type(node).__name__}(" + " ".join(fields) + ")"


def _training_code_digest() -> str:
    sources = [inspect.getsource(module) for module in (
        batched, model, optim, losses,
    )]
    for owner, members in ((Graph, GRAPH_MEMBERS), (UpdatePlan, PLAN_MEMBERS)):
        for name in members:
            member = owner.__dict__[name]
            sources.append(textwrap.dedent(
                inspect.getsource(getattr(member, "fget", member)),
            ))
    hasher = hashlib.sha256()
    for source in sources:
        hasher.update(_canonical(ast.parse(source)).encode())
    return hasher.hexdigest()


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


def test_the_training_code_is_its_revision():
    # A change to what a training run executes changes its results: bump
    # ``_TRAINING_REVISION`` and move this pin with it.
    assert (
        batched._TRAINING_REVISION, _training_code_digest(),
    ) == TRAINING
