#!/usr/bin/env python3
"""Quickstart: plan and simulate GoPIM on the ddi workload.

Runs the full GoPIM flow end-to-end:

1. generate the synthetic ddi stand-in graph (Table III statistics);
2. train the session's ML time predictor on generated samples;
3. let GoPIM predict stage times, allocate crossbar replicas
   (Algorithm 1) and build the ISU update plan;
4. simulate one training epoch and compare against the Serial baseline.

Everything is priced on the current session's chip (``RunSpec()``'s
256 MB array); run it under ``Session(RunSpec(...)).use()`` to change
the hardware, scale or seed.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import GoPIMSystem, workload_from_dataset
from repro.accelerators import serial
from repro.runtime import current_session
from repro.units import format_energy, format_time


def main() -> None:
    print("Training the execution-time predictor (one-off)...")
    current_session().predictor()  # fitted once; GoPIMSystem reads it

    system = GoPIMSystem()
    workload = workload_from_dataset("ddi", random_state=0)
    print(f"Workload: {workload.graph}")

    plan = system.plan(workload)
    print(f"\nAdaptive update threshold theta = {plan.theta:.0%}")
    print("Predicted stage times and allocated replicas:")
    for name, replicas in zip(
        plan.allocation.problem.stage_names, plan.replicas,
    ):
        predicted = plan.predicted_times_ns[name]
        print(f"  {name}: predicted {format_time(predicted)}, "
              f"{int(replicas)} replicas")

    print("\nSimulating one training epoch...")
    gopim_report = system.simulate(workload)
    serial_report = serial().run(workload)

    speedup = serial_report.total_time_ns / gopim_report.total_time_ns
    saving = serial_report.energy_pj / gopim_report.energy_pj
    print(f"  Serial: {format_time(serial_report.total_time_ns)}, "
          f"{format_energy(serial_report.energy_pj)}")
    print(f"  GoPIM:  {format_time(gopim_report.total_time_ns)}, "
          f"{format_energy(gopim_report.energy_pj)}")
    print(f"  Speedup {speedup:.1f}x, energy saving {saving:.2f}x")


if __name__ == "__main__":
    main()
