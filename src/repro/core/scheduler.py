"""Multi-tenant chip scheduling: several GCN jobs, one crossbar budget.

The paper's Time Predictor descends from cluster-scheduling work (its
refs [35], [47]): with users submitting diverse models and datasets, the
scheduler must divide the accelerator between jobs without profiling each
one.  This module closes that loop:

* each job is a :class:`~repro.stages.workload.Workload`;
* stage times come from the (shared) ML predictor — milliseconds per job;
* the chip's crossbar budget is split across jobs, each job then runs
  GoPIM's own greedy allocation inside its share;
* two policies are provided: a naive **equal split** and a **marginal-gain
  greedy** that hands budget quanta to whichever job's makespan currently
  shrinks the most per crossbar.

Jobs run concurrently on disjoint crossbar pools, so the system objective
is the *slowest job's* makespan (all jobs finish) — reported alongside the
sum for throughput-oriented comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.accelerators.base import AcceleratorModel
from repro.accelerators.catalog import gopim
from repro.errors import AllocationError
from repro.runtime import current_session
from repro.stages.workload import Workload


@dataclass
class JobPlacement:
    """One job's share of the chip and the resulting makespan."""

    workload_name: str
    budget: int
    makespan_ns: float
    crossbars_used: int


@dataclass
class ScheduleOutcome:
    """A full multi-job schedule."""

    policy: str
    placements: List[JobPlacement]

    @property
    def slowest_ns(self) -> float:
        """Completion time of the schedule (jobs run concurrently)."""
        return max(p.makespan_ns for p in self.placements)


class MultiTenantScheduler:
    """Splits the current session's chip (its crossbar budget) across
    several GCN jobs, each run on GoPIM."""

    def __init__(self, time_predictor=None) -> None:
        self._predictor = time_predictor

    # ------------------------------------------------------------------
    def _mandatory(self, accelerator: AcceleratorModel, workload: Workload) -> int:
        timing = accelerator.build_timing_model(workload)
        return int(sum(
            timing.crossbars_per_replica(s) for s in timing.stages
        ))

    def _makespan_with_budget(
        self,
        accelerator: AcceleratorModel,
        workload: Workload,
        budget: int,
    ) -> float:
        chip = current_session().config
        config = chip.scaled(
            array_capacity_bytes=budget * (
                chip.cells_per_crossbar * chip.bits_per_cell // 8
            ),
        )
        return accelerator.run(workload, config).total_time_ns

    def _accelerators(self, workloads: Sequence[Workload]) -> List[AcceleratorModel]:
        return [gopim(time_predictor=self._predictor) for _ in workloads]

    # ------------------------------------------------------------------
    def equal_split(self, workloads: Sequence[Workload]) -> ScheduleOutcome:
        """Give every job the same crossbar share."""
        self._validate(workloads)
        accelerators = self._accelerators(workloads)
        share = current_session().config.total_crossbars // len(workloads)
        placements = []
        for workload, accelerator in zip(workloads, accelerators):
            mandatory = self._mandatory(accelerator, workload)
            if share < mandatory:
                raise AllocationError(
                    f"equal share {share} cannot hold {workload.name}'s "
                    f"mandatory {mandatory} crossbars"
                )
            makespan = self._makespan_with_budget(
                accelerator, workload, share,
            )
            placements.append(JobPlacement(
                workload_name=workload.name, budget=share,
                makespan_ns=makespan, crossbars_used=share,
            ))
        return ScheduleOutcome(policy="equal-split", placements=placements)

    def greedy_split(
        self,
        workloads: Sequence[Workload],
        quanta: int = 16,
    ) -> ScheduleOutcome:
        """Marginal-gain split: quanta go to the job that improves most.

        Starts every job at its mandatory footprint, then repeatedly gives
        one budget quantum (``1/quanta`` of the remaining pool) to the job
        whose *makespan* currently dominates — the min-max objective's
        steepest descent.
        """
        self._validate(workloads)
        if quanta < 1:
            raise AllocationError("quanta must be >= 1")
        accelerators = self._accelerators(workloads)
        mandatory = [
            self._mandatory(acc, wl)
            for acc, wl in zip(accelerators, workloads)
        ]
        budgets = list(mandatory)
        pool = current_session().config.total_crossbars - sum(mandatory)
        if pool < 0:
            raise AllocationError(
                "chip cannot hold every job's mandatory footprint"
            )
        quantum = max(1, pool // quanta)
        makespans = [
            self._makespan_with_budget(acc, wl, b)
            for acc, wl, b in zip(accelerators, workloads, budgets)
        ]
        while pool >= quantum:
            worst = int(np.argmax(makespans))
            budgets[worst] += quantum
            pool -= quantum
            makespans[worst] = self._makespan_with_budget(
                accelerators[worst], workloads[worst], budgets[worst],
            )
        placements = [
            JobPlacement(
                workload_name=wl.name, budget=b,
                makespan_ns=m, crossbars_used=b,
            )
            for wl, b, m in zip(workloads, budgets, makespans)
        ]
        return ScheduleOutcome(policy="greedy-split", placements=placements)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(workloads: Sequence[Workload]) -> None:
        if not workloads:
            raise AllocationError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise AllocationError("workload names must be unique")
