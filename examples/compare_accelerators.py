#!/usr/bin/env python3
"""Compare all six accelerator designs across the headline datasets.

Reproduces the Fig. 13 sweep interactively: Serial, SlimGNN-like,
ReGraphX, ReFlip, GoPIM-Vanilla and GoPIM on any subset of the paper's
datasets, printing per-system time/energy and the normalised speedups.

Usage::

    python examples/compare_accelerators.py [dataset ...]

Defaults to ddi and collab (one dense, one near the sparse threshold).
"""

from __future__ import annotations

import sys

from repro.runtime import current_session
from repro.accelerators import (
    gopim,
    gopim_vanilla,
    reflip,
    regraphx,
    serial,
    slimgnn_like,
)
from repro.units import format_energy, format_time


def compare(dataset: str) -> None:
    """Print the six-system comparison for one dataset."""
    session = current_session()
    predictor = session.predictor(num_samples=800, seed=0)
    workload = session.workload(dataset, seed=0)
    print(f"\n=== {dataset}: {workload.graph} ===")
    systems = (
        serial(),
        slimgnn_like(),
        regraphx(),
        reflip(),
        gopim_vanilla(time_predictor=predictor),
        gopim(time_predictor=predictor),
    )
    reports = [acc.run(workload) for acc in systems]
    base = reports[0]
    header = (
        f"{'system':<14} {'time':>12} {'energy':>12} "
        f"{'speedup':>9} {'e-saving':>9} {'crossbars':>10}"
    )
    print(header)
    print("-" * len(header))
    for report in reports:
        print(
            f"{report.accelerator:<14} "
            f"{format_time(report.total_time_ns):>12} "
            f"{format_energy(report.energy_pj):>12} "
            f"{base.total_time_ns / report.total_time_ns:>8.1f}x "
            f"{base.energy_pj / report.energy_pj:>8.2f}x "
            f"{report.crossbars_reserved:>10d}"
        )


def main() -> None:
    datasets = sys.argv[1:] or ["ddi", "collab"]
    for dataset in datasets:
        compare(dataset)


if __name__ == "__main__":
    main()
