#!/usr/bin/env python3
"""Hardware time-to-accuracy: the co-simulation study.

Couples the accelerator timing model with real GCN training so the
per-epoch hardware cost and the per-epoch accuracy interact: ISU's
staleness slows convergence slightly per epoch but cuts each epoch's
hardware time by much more, so GoPIM reaches any accuracy target first.

Usage::

    python examples/time_to_accuracy.py [dataset] [epochs] [target]
"""

from __future__ import annotations

import sys

from repro.accelerators import gopim, gopim_vanilla, serial
from repro.core import CoSimulation
from repro.runtime import current_session
from repro.units import format_time


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "arxiv"
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    target = float(sys.argv[3]) if len(sys.argv) > 3 else 0.7
    graph = current_session().graph(dataset, seed=0)
    print(f"{dataset}: {graph}")
    print(f"Training {epochs} epochs per system; "
          f"target test metric {target:.0%}.\n")

    header = (
        f"{'system':<14} {'best acc':>9} {'total hw time':>14} "
        f"{'time to target':>15}"
    )
    print(header)
    print("-" * len(header))
    for accelerator in (serial(), gopim_vanilla(), gopim()):
        result = CoSimulation(accelerator).run(
            graph, dataset, epochs=epochs,
        )
        reached = result.time_to_accuracy_ns(target)
        print(
            f"{accelerator.name:<14} {result.best_test_metric:>8.1%} "
            f"{format_time(result.total_time_ns):>14} "
            f"{format_time(reached) if reached else 'not reached':>15}"
        )


if __name__ == "__main__":
    main()
