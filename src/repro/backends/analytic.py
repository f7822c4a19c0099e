"""The analytic backend: closed-form latency laws (the historical path).

This is a *boundary move*, not a new model: every method delegates to the
same :class:`~repro.stages.latency.StageTimingModel` vector forms and the
same serving cost law the pre-protocol code called directly, in the same
order, on the same floats — results are byte-identical to the code this
refactor carved the protocol out of.  The golden-hash suite and
``tests/backends/test_analytic_identity.py`` pin that equivalence.

What "analytic" means here: each (stage, micro-batch) latency is the
closed-form :func:`~repro.stages.latency.compute_law_ns` — operation
counts *divided* by the :func:`~repro.stages.latency.effective_lanes`
(``work / lanes``) — so fractional lane occupancy is averaged away.  The
trace backend prices the same work, on the same lanes and stage
constants, with per-lane ceil arithmetic instead (``ceil(work /
lanes)``); comparing the two is the cross-validation experiment's job.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.backends.protocol import EpochProgram, SimulationBackend
from repro.stages.latency import compute_law_ns, effective_lanes


class AnalyticBackend(SimulationBackend):
    """Closed-form stage latency tables behind the backend protocol."""

    name = "analytic"

    def stage_time_matrix(self, program: EpochProgram) -> np.ndarray:
        timing = program.timing
        if program.full_round is None:
            # The expected-mix epoch: exactly StageTimingModel's own
            # whole-epoch matrix (the pre-protocol AcceleratorModel call).
            return timing.stage_time_matrix(program.replicas)
        # One specific write phase: the co-simulation's per-epoch table,
        # checked against the scalar loop in tests/oracles/cosim.py.
        replicas = program.replica_vector()
        return np.stack([
            timing.compute_times_ns(stage, int(replicas[i]))
            + timing.phase_write_times_ns(stage, program.full_round)
            + timing.reload_times_ns(stage)
            for i, stage in enumerate(timing.stages)
        ])

    def service_times_ns(
        self,
        model: Any,  # repro.serving.cost.ServingCostModel
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        # The training side's compute law on the serving model's stage
        # constants (byte-identical to the pre-protocol loop kept as
        # tests/oracles/serving.py's batch_times_ns_reference); quantised
        # once at the end.
        sizes_f = np.asarray(sizes, dtype=np.float64)
        edges_f = np.asarray(edges, dtype=np.float64)
        out = np.empty((model.num_stages, sizes_f.size))
        for s in range(model.num_stages):
            edge_stage = bool(model.is_edge_stage[s])
            lanes = effective_lanes(
                edge_stage, float(model.replicas[s]), sizes_f, edges_f,
                model.intrinsic_edge_parallelism,
            )
            out[s] = compute_law_ns(
                edge_stage, sizes_f, edges_f, model.stage_factor[s], lanes,
                model.mvm_latency_ns, model.read_latency_ns,
            )
        return np.rint(out).astype(np.int64)

    def epoch_stats(self, program: EpochProgram) -> Dict[str, Any]:
        return {"model": "closed-form"}


ANALYTIC_BACKEND = AnalyticBackend()
