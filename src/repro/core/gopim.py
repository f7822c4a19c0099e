"""GoPIMSystem: the paper's contribution behind one high-level facade.

Ties together the four pieces Section IV composes:

1. the **Time Predictor** (ML-estimated per-stage times, Section V-A),
2. the **Resource Allocator** (Algorithm 1's max-heap greedy, Section V-B),
3. **ISU** (interleaved mapping with adaptive selective updating,
   Section VI),
4. the **intra+inter-batch pipeline** on the ReRAM chip (Section IV).

Typical use::

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

from repro.accelerators.base import AcceleratorReport
from repro.accelerators.catalog import gopim
from repro.allocation.problem import AllocationResult
from repro.errors import GoPIMError
from repro.gcn.trainer import TrainingResult, make_trainer
from repro.graphs.graph import Graph
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.mapping.selective import UpdatePlan, build_update_plan
from repro.predictor.predictor import TimePredictor
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
    config:
        Hardware configuration (Table II defaults).
    predictor:
        A fitted :class:`TimePredictor`; ``None`` trains one lazily on
        first use (deterministic, cached on the instance).
    theta:
        Override for the adaptive update threshold.
    """

    def __init__(
        self,
        config: Optional[HardwareConfig] = None,
        predictor: Optional[TimePredictor] = None,
        theta: Optional[float] = None,
    ) -> None:
        self._config = DEFAULT_CONFIG if config is None else config
        self._predictor = predictor
        self._theta = theta

    @property
    def config(self) -> HardwareConfig:
        """The hardware configuration."""
        return self._config

    @property
    def predictor(self) -> TimePredictor:
        """The fitted time predictor (trained lazily)."""
        if self._predictor is None:
            self._predictor = TimePredictor().fit()
        elif not self._predictor.is_fitted:
            raise GoPIMError("provided predictor is not fitted")
        return self._predictor

    # ------------------------------------------------------------------
    def plan(self, workload: Workload) -> GoPIMPlan:
        """Run the CPU-side pipeline: predict times, allocate, build ISU."""
        accelerator = gopim(time_predictor=self.predictor, theta=self._theta)
        timing = accelerator.build_timing_model(workload, self._config)
        problem = accelerator._build_problem(timing, self._config)
        allocation = accelerator.allocator(problem)
        return GoPIMPlan(
            predicted_times_ns=self.predictor.predict_stage_times(workload),
            allocation=allocation,
            update_plan=timing.update_plan,
        )

    def simulate(self, workload: Workload) -> AcceleratorReport:
        """Simulate one training epoch on the GoPIM accelerator."""
        accelerator = gopim(time_predictor=self.predictor, theta=self._theta)
        return accelerator.run(workload, self._config)

    def train(
        self,
        graph: Graph,
        task: str,
        epochs: int = 60,
        random_state: int = 0,
        **trainer_kwargs,
    ) -> TrainingResult:
        """Train a GCN with GoPIM's ISU staleness semantics."""
        plan = build_update_plan(
            graph, strategy="isu", theta=self._theta,
            rows_per_crossbar=self._config.crossbar_rows,
        )
        trainer = make_trainer(
            graph, task, random_state=random_state, **trainer_kwargs,
        )
        return trainer.train(epochs=epochs, update_plan=plan)
