#!/usr/bin/env python3
"""Dissect the GoPIM pipeline: Gantt charts, utilisation, bottlenecks.

Walks through what the pipeline optimisation actually does on one
dataset:

1. render the Serial schedule (everything in sequence);
2. render the naive pipelined schedule (idle-riddled — the Fig. 4 story);
3. render GoPIM's replica-balanced schedule;
4. print per-stage utilisation and the bottleneck stage at each step,
   plus the crossbar allocation Algorithm 1 chose.

Usage::

    python examples/pipeline_anatomy.py [dataset] [width]
"""

from __future__ import annotations

import sys

from repro.accelerators import gopim, naive_pipeline, serial
from repro.runtime import current_session
from repro.pipeline import bottleneck_stage, render_gantt, utilization_report
from repro.units import format_time


def show(report, width: int) -> None:
    """Render one accelerator's schedule and utilisation."""
    print(f"\n--- {report.accelerator} "
          f"(makespan {format_time(report.total_time_ns)}) ---")
    print(render_gantt(report.pipeline, report.stage_names, width=width))
    rows = utilization_report(report.pipeline, report.stage_names)
    busiest = bottleneck_stage(report.pipeline, report.stage_names)
    idle = ", ".join(
        f"{r['stage']}:{r['idle_fraction']:.0%}" for r in rows
    )
    print(f"idle fractions: {idle}")
    print(f"bottleneck stage: {busiest}")


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "cora"
    width = int(sys.argv[2]) if len(sys.argv) > 2 else 72
    session = current_session()
    workload = session.workload(dataset, seed=0)
    predictor = session.predictor(num_samples=800, seed=0)
    print(f"{dataset}: {workload.graph}")

    serial_report = serial().run(workload)
    naive_report = naive_pipeline().run(workload)
    gopim_report = gopim(time_predictor=predictor).run(workload)

    show(serial_report, width)
    show(naive_report, width)
    show(gopim_report, width)

    print("\nAlgorithm 1's crossbar allocation:")
    print("  " + gopim_report.allocation.summary())
    speedup = serial_report.total_time_ns / gopim_report.total_time_ns
    print(f"\nGoPIM end-to-end speedup vs Serial: {speedup:.1f}x")


if __name__ == "__main__":
    main()
