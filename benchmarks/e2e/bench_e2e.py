"""End-to-end, per-layer benchmark of the GoPIM reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench_e2e.py [--workload NAME]... [--seed N]
        [--seconds S] [--runs K] [--trace 0|1] [--out report.json]
        [--spans spans.jsonl] [--smoke] [--record] [--write-digests]

Each run of a workload starts fresh child processes (``sys.executable``
running ``e2e_workloads.py``): a few set-up-only children for
``setup_s``, one child that sets up and runs timed passes for ``S``
seconds with tracing off, and -- with ``--trace 1`` -- one traced child
whose layer spans give the per-layer metrics.  Every output is checked
against ``expected_digests.json``.  Walls are compared in units of a
fixed calibration loop run next to them (``wall_per_calib``), and
set-up times are scaled by the same loop (``setup_s``), which cancels
much of a shared host's drift.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``), each the median over ``--runs``.  The exit code is
non-zero when any output check failed.  Names, units and bounds come
from ``BENCHMARK.json`` at the repository root; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "e2e_workloads.py"
HISTORY_PATH = HERE / "history.jsonl"

sys.path.insert(0, str(HERE))
from e2e_tracer import layer_metrics  # noqa: E402
from e2e_workloads import (  # noqa: E402
    DIGESTS_PATH, REFERENCE_CALIB_S, SWEEP_IDS, TRACE_IDS, WORKLOADS,
)

# Fresh children per set-up sample: the median of three where one
# set-up takes a few seconds, a single sample where it is a cold cache
# fill (~15 s for sweep-warm, ~6 s for accel-trace).
SETUP_SAMPLES = {
    "sweep-cold": 3, "sweep-warm": 1, "accel-trace": 1, "serving-scale": 3,
}
# Traced passes in the traced child, each followed by an untraced one
# (~15-45 s in all, each workload); a fixed count, so that per-pass
# means of simulated values and counts repeat exactly between runs.
TRACED_PASSES = {
    "sweep-cold": 1, "sweep-warm": 3, "accel-trace": 10, "serving-scale": 10,
}
# A child may take this long beyond its timed budget: set-up (~15 s
# for sweep-warm), the pass that overruns the budget, the traced passes.
CHILD_SLACK_S = 120.0
PAPER_GOPIM_SPEEDUP_X = 727.6
DIGEST_SEEDS = range(20)

# The variables a child must not inherit: any of them would read or
# write a disk cache tier, or let BLAS spawn threads.
CHILD_ENV_DROP = ("REPRO_CACHE_DIR", "REPRO_SWEEP_TIMES")
CHILD_ENV_SET = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    """A child process crashed, timed out, or printed no result."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    env.update(CHILD_ENV_SET)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []),
    )
    return env


def run_child(config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion; its result carries ``spawned_at``."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=str(ROOT), text=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=config["seconds"] + CHILD_SLACK_S,
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{config['mode']} child timed out")
    if proc.returncode != 0 or not stdout.strip():
        tail = stderr.strip().splitlines()[-3:]
        raise ChildFailed(
            f"{config['mode']} child exited {proc.returncode}: "
            + " | ".join(tail)
        )
    out = json.loads(stdout.strip().splitlines()[-1])
    out["spawned_at"] = spawned_at
    return out


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile, and the sample count."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
    spans: Optional[str], run_index: int,
) -> Dict[str, Any]:
    """One run: set-up samples, timed passes, optionally a traced pass."""
    base = {"workload": workload, "seed": seed, "smoke": smoke,
            "seconds": seconds, "run": run_index}
    record: Dict[str, Any] = {"seed": seed, "failures": [], "attempted": 0}
    samples = 1 if smoke else SETUP_SAMPLES[workload]
    try:
        setups = [
            run_child({**base, "mode": "setup"}) for _ in range(samples - 1)
        ]
        main = run_child({**base, "mode": "run", **({"passes": 1} if smoke else {})})
        setups.append(main)
        traced = None
        if trace:
            traced = run_child({
                **base, "mode": "traced", "spans": spans,
                "passes": 1 if smoke else TRACED_PASSES[workload],
            })
    except ChildFailed as exc:
        record["failures"].append(f"{workload}: {exc}")
        record["attempted"] = 1
        record["metrics"] = {}
        return record

    record["attempted"] = main["attempted"]
    record["failures"] = list(main["failures"])
    raw_setups = [out["ready_at"] - out["spawned_at"] for out in setups]
    record["setup_samples"] = raw_setups
    record["pass_walls"] = main["pass_walls"]
    record["sim"] = main["sim"]
    # Raw host seconds are reported but are no metric: on a shared host
    # their medians drift with other tenants' load (see README.md).
    record["wall_s"] = statistics.median(main["pass_walls"])
    record["setup_raw_s"] = statistics.median(raw_setups)
    metrics = {
        "wall_per_calib": statistics.median(main["pass_norms"]),
        "setup_s": statistics.median(
            raw * REFERENCE_CALIB_S / out["setup_calib_s"]
            for raw, out in zip(raw_setups, setups)
        ),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    if traced is not None:
        record["attempted"] += traced["attempted"]
        record["failures"] += traced["failures"]
        # Tracing must not change a single output byte.
        for op, digest in traced["digests"].items():
            if digest != main["digests"].get(op):
                record["failures"].append(
                    f"{op}: traced output differs from the untraced one"
                )
        metrics.update(per_layer(main, traced))
    record["metrics"] = metrics
    return record


def per_layer(main: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metric set of one run (names in BENCHMARK.json)."""
    metrics = layer_metrics(traced["trace"])
    wall = statistics.median(main["pass_walls"])
    metrics["trace.coverage"] = traced["trace"]["coverage"]
    metrics["trace.overhead_pct"] = traced["trace"]["overhead_pct"]
    metrics["calib.s"] = statistics.median(main["calibrations"])
    sim = main["sim"]
    metrics["sim.gopim_speedup_x"] = sim.get("gopim_speedup_x", 0.0)
    metrics["sim.p99_us"] = sim.get("p99_us", 0.0)
    metrics["serving.requests"] = sim.get("requests", 0.0)
    metrics["serving.sim_queue_depth"] = sim.get("queue_depth", 0.0)
    metrics["serving.sim_mreq_per_s"] = sim.get("requests", 0.0) / wall / 1e6
    for experiment_id in sorted(set(SWEEP_IDS) | set(TRACE_IDS)):
        walls = main["op_walls"].get(experiment_id)
        metrics[f"experiments.{experiment_id}.wall_s"] = (
            statistics.median(walls) if walls else 0.0
        )
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def metric_specs() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {spec["name"]: spec for spec in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    names = sorted({name for run in runs for name in run["metrics"]})
    return {
        name: quartiles([
            run["metrics"][name] for run in runs if name in run["metrics"]
        ])
        for name in names
    }


def print_report(
    workload: str, runs: List[Dict[str, Any]],
    specs: Dict[str, Dict[str, Dict[str, Any]]],
) -> None:
    summary = summarise(runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(len(run["failures"]) for run in runs)
    print(f"== {workload} ({len(runs)} run(s))")
    walls = [w for run in runs for w in run.get("pass_walls", [])]
    if walls:
        passes = quartiles(walls)
        print(f"  {'wall_s (raw, not compared)':<40} {passes['median']:>14.6g} s"
              f"  (passes: q1 {passes['q1']:.6g}, q3 {passes['q3']:.6g}, "
              f"n={passes['n']})")
        setup = quartiles([run["setup_raw_s"] for run in runs if "setup_raw_s" in run])
        print(f"  {'setup_raw_s (raw, not compared)':<40} {setup['median']:>14.6g} s")
    for kind in ("end_to_end", "per_layer"):
        for name, spec in specs[kind].items():
            if name not in summary:
                continue
            stats = summary[name]
            line = f"  {name:<40} {stats['median']:>14.6g} {spec['unit']}"
            if stats["n"] > 1:
                line += f"  (runs: q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g})"
            print(line)
    print(f"  {'failed_ratio':<40} {failed / max(1, attempted):>14.6g} "
          f"failed/attempted ({failed}/{attempted})")
    sim = runs[0].get("sim", {}) if runs else {}
    if "gopim_speedup_x" in sim:
        value = sim["gopim_speedup_x"]
        error = 100.0 * (value / PAPER_GOPIM_SPEEDUP_X - 1.0)
        print(
            f"  {'sim_gopim_speedup_x':<40} {value:>14.6g} x (simulated)  "
            f"paper {PAPER_GOPIM_SPEEDUP_X}x, error {error:+.1f}% -- graphs "
            f"scaled down 64-1024x, model unvalidated against hardware"
        )
    if "p99_us" in sim:
        print(f"  {'sim_p99_us':<40} {sim['p99_us']:>14.6g} us (simulated, "
              f"poisson/jsq/load 0.8)")
        print(f"  {'sim_mreq_per_s':<40} "
              f"{sim['requests'] / statistics.median(walls) / 1e6:>14.6g} "
              f"M simulated requests per host s")
    for run in runs:
        for failure in run["failures"]:
            print(f"  FAILED: {failure}")


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_digests() -> None:
    """Regenerate ``expected_digests.json`` from the current code.

    An operation whose output is the same at seeds 0 and 1 gets one
    digest; any other gets one per seed in :data:`DIGEST_SEEDS`.
    """
    def table(workload: str, smoke: bool = False) -> Dict[str, Any]:
        def collect(seeds, only=None) -> Dict[str, Dict[str, str]]:
            return run_child({
                "workload": workload, "seed": 0, "smoke": smoke,
                "seconds": 0, "mode": "digests", "seeds": list(seeds),
                "only": only,
            })["digests"]

        probe = collect((0, 1))
        out: Dict[str, Any] = {
            op: digest for op, digest in probe["0"].items()
            if probe["1"][op] == digest
        }
        seeded = sorted(set(probe["0"]) - set(out))
        if seeded:
            for seed, found in collect(DIGEST_SEEDS, seeded).items():
                for op in seeded:
                    out.setdefault(op, {})[seed] = found[op]
        return out

    payload = {
        "analytic": table("sweep-cold"),
        "trace": table("accel-trace"),
        "serving": {**table("serving-scale"), **table("serving-scale", True)},
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="timed-pass budget per run")
    parser.add_argument("--runs", type=int, default=1,
                        help="independent runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced child and per-layer metrics")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--spans", help="write traced spans (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass (a quick self-test)")
    parser.add_argument("--record", action="store_true",
                        help="append this invocation to history.jsonl")
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate expected_digests.json and exit")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_e2e: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    specs = metric_specs()
    workloads = args.workload or list(WORKLOADS)
    if args.spans:
        Path(args.spans).write_text("")

    results: Dict[str, List[Dict[str, Any]]] = {}
    for workload in workloads:
        results[workload] = [
            measure(
                workload, args.seed, args.seconds, bool(args.trace),
                args.smoke, args.spans, run_index,
            )
            for run_index in range(args.runs)
        ]

    for workload, runs in results.items():
        print_report(workload, runs, specs)

    kind = "per_layer" if args.trace else "end_to_end"
    expected = set(specs[kind])
    line_metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for workload, runs in results.items():
        attempted += sum(run["attempted"] for run in runs)
        failed += sum(len(run["failures"]) for run in runs)
        summary = summarise(runs)
        if set(summary) and not expected <= set(summary):
            missing = sorted(expected - set(summary))
            raise SystemExit(f"bench_e2e: {workload} lacks metrics {missing}")
        for name in sorted(expected & set(summary)):
            key = name if len(results) == 1 else f"{workload}/{name}"
            line_metrics[key] = {
                "value": summary[name]["median"], "unit": specs[kind][name]["unit"],
            }

    report = {
        "git_sha": git_sha() if (args.record or args.out) else None,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {
            workload: {"runs": runs, "summary": summarise(runs)}
            for workload, runs in results.items()
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.record:
        entry = {
            "git_sha": report["git_sha"], "nproc": report["nproc"],
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": args.seed, "seconds": args.seconds,
            "workloads": {
                workload: {
                    "wall_s": statistics.median(
                        run["wall_s"] for run in data["runs"] if "wall_s" in run
                    ),
                    **{name: stats["median"]
                       for name, stats in data["summary"].items()},
                }
                for workload, data in report["workloads"].items()
            },
        }
        with open(HISTORY_PATH, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": max(1, attempted),
        "failed": failed, "metrics": line_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
