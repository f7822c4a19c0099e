"""Compare two sets of bench_e2e reports.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

``A`` is the base (the parent commit), ``B`` the change.  Every run in
the reports on one side is one sample.  One row per (workload, metric)
present on both sides gives each side's median and quartiles and a
label:

* end-to-end metrics, against the bound in ``BENCHMARK.json``:
  ``improved`` -- B beats A in at least 9/10 of all (A run, B run)
  pairs, ties counting for neither, and the medians differ by more than
  A's spread between quartiles; ``unresolved`` -- either side's spread
  between quartiles, as a share of its median, exceeds the bound
  (unless every B run beats every A run); ``worse`` -- B's median is
  worse than A's by more than the bound; ``ok`` otherwise;
* simulated values and counts, which must repeat exactly: ``equal`` or
  ``MISMATCH``, compared between runs of the same seed (``n/a`` when the
  sides share no seed);
* other per-layer metrics, which have no bound: ``info``.

Exits non-zero on any ``worse`` or ``MISMATCH`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from bench_e2e import metric_specs, quartiles

# Per-layer metrics that are simulated values: a perf change must leave
# them, every count and every cache hit ratio bit-identical.
EXACT_NAMES = frozenset({
    "pipeline.sim_idle_frac", "serving.sim_queue_depth",
    "sim.gopim_speedup_x", "sim.p99_us",
})

Samples = Dict[Tuple[str, str], List[Tuple[int, float]]]


def is_exact(name: str, unit: str) -> bool:
    return unit == "count" or name.endswith(".hit_ratio") or name in EXACT_NAMES


def load(paths: List[str]) -> Samples:
    """(workload, metric) -> [(seed, value), ...] over every run."""
    samples: Samples = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, data in report["workloads"].items():
            for run in data["runs"]:
                for name, value in run["metrics"].items():
                    samples.setdefault((workload, name), []).append(
                        (run["seed"], value),
                    )
    return samples


def label(
    base: List[float], change: List[float], better: str, bound: float,
) -> Tuple[str, float]:
    """The row label and the change's signed worsening (share of A)."""
    a = quartiles(base)
    b = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    wins = sum(sign * (y - x) < 0 for x in base for y in change)
    pairs = len(base) * len(change)
    if (
        wins >= 0.9 * pairs and worsening < 0
        and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
    ):
        return "improved", worsening
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] for s in (a, b)
    )
    if spread > bound and wins < pairs:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    return "ok", worsening


def exact_label(
    base: List[Tuple[int, float]], change: List[Tuple[int, float]],
) -> str:
    values: Dict[int, set] = {}
    for seed, value in base + change:
        values.setdefault(seed, set()).add(value)
    shared = {seed for seed, _ in base} & {seed for seed, _ in change}
    if not shared:
        return "n/a"
    return "equal" if all(len(values[s]) == 1 for s in shared) else "MISMATCH"


def compare(base: Samples, change: Samples) -> Tuple[List[List[str]], bool]:
    specs = {
        name: (kind, spec)
        for kind, named in metric_specs().items()
        for name, spec in named.items()
    }
    order = {name: index for index, name in enumerate(specs)}
    rows: List[List[str]] = []
    failed = False
    for workload, name in sorted(base, key=lambda k: (k[0], order.get(k[1], -1))):
        if (workload, name) not in change or name not in specs:
            continue
        kind, spec = specs[name]
        a = base[(workload, name)]
        b = change[(workload, name)]
        a_values = [v for _, v in a]
        b_values = [v for _, v in b]
        worse_by = ""
        if kind == "end_to_end":
            verdict, worsening = label(
                a_values, b_values, spec["better"], spec["bound"],
            )
            worse_by = f"{100.0 * worsening:+.2f}%"
        elif is_exact(name, spec["unit"]):
            verdict = exact_label(a, b)
        else:
            verdict = "info"
        failed |= verdict in ("worse", "MISMATCH")

        def fmt(values: List[float]) -> str:
            q = quartiles(values)
            return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}] n={q['n']}"

        rows.append([
            workload, name, spec["unit"], fmt(a_values), fmt(b_values),
            worse_by, verdict,
        ])
    return rows, failed


def main(argv: List[str]) -> int:
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    rows, failed = compare(load(argv[:split]), load(argv[split + 1:]))
    header = ["workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "worse by", "label"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
