"""GoPIMSystem: the paper's contribution behind one high-level facade.

Ties together the four pieces Section IV composes:

1. the **Time Predictor** (ML-estimated per-stage times, Section V-A),
2. the **Resource Allocator** (Algorithm 1's max-heap greedy, Section V-B),
3. **ISU** (interleaved mapping with adaptive selective updating,
   Section VI),
4. the **intra+inter-batch pipeline** on the ReRAM chip (Section IV).

Every call prices on the current session's chip and predicts with its
fitted predictor (:func:`repro.runtime.current_session`).  Typical use::

    from repro import GoPIMSystem, workload_from_dataset

    system = GoPIMSystem()
    workload = workload_from_dataset("ddi")
    plan = system.plan(workload)          # allocation + update plan
    report = system.simulate(workload)    # makespan + energy + trace
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.accelerators.base import AcceleratorModel, AcceleratorReport
from repro.accelerators.catalog import gopim
from repro.allocation.problem import AllocationResult
from repro.gcn.trainer import TrainingResult, make_trainer
from repro.graphs.graph import Graph
from repro.mapping.selective import UpdatePlan, build_update_plan
from repro.runtime import current_session
from repro.stages.workload import Workload


@dataclass(frozen=True)
class GoPIMPlan:
    """The CPU-side decisions GoPIM makes before launching training."""

    predicted_times_ns: Dict[str, float]
    allocation: AllocationResult
    update_plan: UpdatePlan

    @property
    def replicas(self) -> np.ndarray:
        """Per-stage replica counts."""
        return self.allocation.replicas

    @property
    def theta(self) -> float:
        """The adaptive update threshold chosen for the graph."""
        return self.update_plan.theta


class GoPIMSystem:
    """End-to-end GoPIM: predict, allocate, map, pipeline.

    Parameters
    ----------
    theta:
        Override for the adaptive update threshold.
    """

    def __init__(self, theta: Optional[float] = None) -> None:
        self._theta = theta

    def _accelerator(self) -> AcceleratorModel:
        return gopim(
            time_predictor=current_session().predictor(), theta=self._theta,
        )

    # ------------------------------------------------------------------
    def plan(self, workload: Workload) -> GoPIMPlan:
        """Run the CPU-side pipeline: predict times, allocate, build ISU."""
        accelerator = self._accelerator()
        timing = accelerator.build_timing_model(workload)
        allocation = accelerator.allocator(accelerator._build_problem(timing))
        return GoPIMPlan(
            predicted_times_ns=(
                accelerator.time_predictor.predict_stage_times(workload)
            ),
            allocation=allocation,
            update_plan=timing.update_plan,
        )

    def simulate(self, workload: Workload) -> AcceleratorReport:
        """Simulate one training epoch on the GoPIM accelerator."""
        return self._accelerator().run(workload)

    def train(
        self,
        graph: Graph,
        task: str,
        epochs: int = 60,
        random_state: int = 0,
    ) -> TrainingResult:
        """Train a GCN with GoPIM's ISU staleness semantics."""
        plan = build_update_plan(
            graph, strategy="isu", theta=self._theta,
            rows_per_crossbar=current_session().config.crossbar_rows,
        )
        trainer = make_trainer(graph, task, random_state=random_state)
        return trainer.train(epochs=epochs, update_plan=plan)
