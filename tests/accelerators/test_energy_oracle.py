"""Every accelerator run's energy against its merge-per-term oracle.

``AcceleratorModel._energy`` reads the replica-independent terms from
the timing tables and adds only the run's idle leakage, NoC handoff and
static energy.  Each run of the accel-trace experiments (trace backend),
of fig13 and fig14 (analytic), and of fig13 on 128-row crossbars is
compared field by field, with ``==``, against ``tests/oracles/energy.py``.
fig13 brings ReFlip's reload penalty and SlimGNN's pruned graph.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.accelerators.base import AcceleratorModel
from repro.runtime import RunSpec, Session
from tests.oracles.energy import energy_reference

TRACE_IDS = sorted(json.loads((
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "expected_digests.json"
).read_text())["trace"])
SWEEPS = {
    "trace": (RunSpec(backend="trace"), TRACE_IDS),
    "analytic": (RunSpec(), ["fig13", "fig14"]),
    "rows-128": (RunSpec(hardware={"crossbar_rows": 128}), ["fig13"]),
}


@pytest.fixture(scope="module")
def runs():
    """Sweep name -> ``(accelerator, fast energy, oracle energy)`` of
    every ``AcceleratorModel.run`` in it."""
    from repro.experiments.registry import run_all

    recorded = {name: [] for name in SWEEPS}
    run = AcceleratorModel.run
    current = []

    def recording(self, workload, config=None, backend=None):
        report = run(self, workload, config, backend)
        timing = self.build_timing_model(workload, config)
        recorded[current[-1]].append((
            report.accelerator, report.energy,
            energy_reference(timing, report.pipeline, report.replicas),
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
    for accelerator, fast, slow in runs[sweep]:
        fields = dataclasses.asdict(fast)
        assert fields == dataclasses.asdict(slow), accelerator
        assert all(type(value) is float for value in fields.values())


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_the_sweeps_price_every_quirk(runs, sweep):
    accelerators = {accelerator for accelerator, _, _ in runs[sweep]}
    assert {"ReFlip", "SlimGNN-like", "GoPIM", "Serial"} <= accelerators
