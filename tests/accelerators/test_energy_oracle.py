"""Every accelerator run's energy against its merge-per-term oracle.

``repro.hardware.energy.run_energy`` reads the replica-independent terms
from the timing tables and adds only the run's idle leakage, mesh
handoff and static energy.  Each run of the accel-trace experiments
(trace backend), of fig13 and fig14 (analytic), of fig13 on 128-row
crossbars, and of fig13 on a chip whose mesh, peripheral share, input
cycles, idle fraction and buffer energy all differ from the defaults is
compared field by field, with ``==``, against ``tests/oracles/energy.py``.
fig13 brings ReFlip's reload penalty and SlimGNN's pruned graph.  That
chip's mesh is small enough (32 x 32 tiles, 21.3 hops on average) that
the largest pools' handoffs are capped at its average distance; no
fig13 pool reaches that far on a 64 x 64 or the default 256 x 256 mesh.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.accelerators.base import AcceleratorModel
from repro.runtime import RunSpec, Session
from tests.oracles.energy import energy_reference, mesh_hops

TRACE_IDS = sorted(json.loads((
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "expected_digests.json"
).read_text())["trace"])
SWEEPS = {
    "trace": (RunSpec(backend="trace"), TRACE_IDS),
    "analytic": (RunSpec(), ["fig13", "fig14"]),
    "rows-128": (RunSpec(hardware={"crossbar_rows": 128}), ["fig13"]),
    "chip": (RunSpec(hardware={
        "idle_power_fraction": 0.1, "tiles_per_chip": 1024, "input_bits": 8,
        "crossbars_per_pe": 16, "buffer_access_energy_pj_per_byte": 1.5,
    }), ["fig13"]),
}


@pytest.fixture(scope="module")
def runs():
    """Sweep name -> ``(accelerator, fast energy, oracle energy,
    capped)`` of every ``AcceleratorModel.run`` in it; ``capped`` says
    whether a stage's pool reaches past the mesh's average distance."""
    from repro.experiments.registry import run_all

    recorded = {name: [] for name in SWEEPS}
    run = AcceleratorModel.run
    current = []

    def recording(self, workload, config=None, backend=None):
        report = run(self, workload, config, backend)
        timing = self.build_timing_model(workload, config)
        tile = timing.config.crossbars_per_tile
        sides = [
            math.isqrt(copies * timing.crossbars_per_replica(stage) // tile)
            for copies, stage in zip(report.replicas.tolist(), timing.stages)
        ]
        recorded[current[-1]].append((
            report.accelerator, report.energy,
            energy_reference(timing, report.pipeline, report.replicas),
            max(sides) > mesh_hops(timing.config),
        ))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AcceleratorModel, "run", recording)
        for name, (spec, ids) in SWEEPS.items():
            current.append(name)
            run_all(only=ids, quick=True, session=Session(spec))
    return recorded


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_every_run_equals_the_oracle(runs, sweep):
    assert runs[sweep]
    for accelerator, fast, slow, _ in runs[sweep]:
        fields = dataclasses.asdict(fast)
        assert fields == dataclasses.asdict(slow), accelerator
        assert all(type(value) is float for value in fields.values())


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_the_sweeps_price_every_quirk(runs, sweep):
    accelerators = {accelerator for accelerator, *_ in runs[sweep]}
    assert {"ReFlip", "SlimGNN-like", "GoPIM", "Serial"} <= accelerators


def test_the_small_mesh_caps_a_handoff(runs):
    assert any(capped for *_, capped in runs["chip"])
