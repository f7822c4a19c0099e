"""The end-to-end benchmark's workloads and its child-process entry point.

``bench_e2e.py`` runs every measurement in a fresh interpreter::

    python benchmarks/e2e/e2e_workloads.py '<json config>'

with ``src`` on ``PYTHONPATH``, BLAS pinned to one thread and no disk
cache tier.  The child prints one JSON document on stdout; anything the
simulator prints goes to stderr.  Modes:

* ``setup``  -- do the workload's set-up, report when it was ready and
  how long the calibration loop (:func:`calibrate`) then takes, exit;
* ``run``    -- the same, then run timed passes until ``seconds`` is
  spent, checking every output against ``expected_digests.json``; a
  calibration loop runs between operations about once a second,
  outside their timing;
* ``traced`` -- the same with set-up under the layer tracer
  (:mod:`e2e_tracer`), then ``passes`` traced passes, each followed by
  an untraced one, for the per-layer metrics;
* ``digests`` -- for each of ``seeds``, set up and run one pass,
  returning the output digests unchecked (``bench_e2e.py
  --write-digests``);
* ``calibrator`` -- the helper of :class:`Calibration`: one loop per
  line read from stdin, its seconds written to stdout.

One operation is one experiment (``run_all(only=[id], quick=True)``,
``jobs=1``) or one serving scenario (``run_serving``); a pass runs each
of the workload's operations once, one at a time: a closed loop with a
single client and no worker pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "expected_digests.json"

# Every registered experiment but fig09: its quick run alone fits ~30
# MLPs for ~32 s cold, more than one benchmark run may spend.
SWEEP_IDS = (
    "fig04", "fig05", "fig06", "fig07", "fig13", "fig14", "fig15", "fig16",
    "fig17", "tab05", "tab06", "tab07", "abl-allocator", "abl-isu",
    "abl-tta", "abl-variation", "abl-crossbar-size", "abl-features",
    "abl-motivation", "abl-endurance", "abl-samples", "abl-quantization",
    "abl-scheduler", "abl-weight-staleness", "abl-model-family",
    "srv_tail_latency", "srv_batching_policy", "srv_saturation",
    "bke_cross_validation",
)
# Trace-capable experiments that train no GCN and serve no requests.
TRACE_IDS = (
    "fig04", "fig13", "fig14", "fig15", "fig17", "tab06", "tab07",
    "abl-isu", "abl-crossbar-size", "bke_cross_validation",
)
# The largest scenario the experiments serve: srv_tail_latency's full
# tier (400k requests at each of its loads), under both balancers.
SERVING_REQUESTS = 400_000
SERVING_LOADS = (0.4, 0.6, 0.8, 0.9, 0.97)
SERVING_GRID = tuple(
    (process, load, balancer)
    for process in ("poisson", "mmpp")
    for load in SERVING_LOADS
    for balancer in ("jsq", "rr")
)
# The p99 reported as sim.p99_us.
P99_SCENARIO = ("poisson", 0.8, "jsq")

SMOKE_SWEEP_IDS = ("fig05", "fig07")
SMOKE_TRACE_IDS = ("tab06", "abl-crossbar-size")
SMOKE_SERVING = (20_000, (P99_SCENARIO,))

# Result columns that are wall-clock measurements, dropped before
# digesting (they differ between any two runs by design).
WALL_CLOCK_COLUMNS = {"abl-allocator": ("decision time (ms)",)}

WORKLOADS = ("sweep-cold", "sweep-warm", "accel-trace", "serving-scale")

# Seconds of operations between two calibration loops.
CALIBRATE_EVERY_S = 1.0
# Loops run right after set-up; their median scales setup_s.
SETUP_CALIBRATIONS = 5
# setup_s is in seconds of a machine on which one loop takes this long.
REFERENCE_CALIB_S = 0.2


def calibrate() -> float:
    """Seconds for a fixed loop, half numpy sorts of a 16 MiB array and
    half pure-Python arithmetic (~0.2 s in all).

    On a shared host the walls drift with other tenants' load, which
    slows the interpreter and the memory system by different amounts
    at different times: an operation's wall divided by the calibration
    runs next to it cancels much of that drift, and a loop of one kind
    alone tracks it worse.  The sort input is built outside the timed
    region.
    """
    import numpy as np

    floats = np.random.default_rng(0).standard_normal(1 << 21)
    start = time.perf_counter()
    for _ in range(4):
        np.sort(floats)
    total = 0
    for i in range(1_200_000):
        total += i * i % 7
    return time.perf_counter() - start


class Calibration:
    """Operation walls and the calibration loops run between them.

    Timed passes call :meth:`run` before the first operation, then
    :meth:`after_op` after each; a loop runs after every
    :data:`CALIBRATE_EVERY_S` of operations and at :meth:`finish`, and
    each operation's wall is divided by the mean of the two loops that
    bracket it.  The loops run one at a time, while this process waits,
    in a helper process (``{"mode": "calibrator"}``) that :meth:`close`
    stops: their arrays never touch this process's heap, so its peak
    resident set is the workload's alone.
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        # (operations run before it, seconds)
        self.points: List[Tuple[int, float]] = []
        self._since = 0.0
        self._helper = subprocess.Popen(
            [sys.executable, __file__, json.dumps({"mode": "calibrator"})],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def loop(self) -> float:
        """Seconds for one calibration loop, run now."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def run(self) -> None:
        self.points.append((len(self.walls), self.loop()))
        self._since = 0.0

    def after_op(self, op: Op) -> None:
        self.walls.append(op.wall_s)
        self._since += op.wall_s
        if self._since >= CALIBRATE_EVERY_S:
            self.run()

    def finish(self) -> None:
        if self.points[-1][0] < len(self.walls):
            self.run()

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()

    def normalised(self) -> List[float]:
        """Each operation's wall in calibration-loop units."""
        out = []
        for index, wall in enumerate(self.walls):
            before = max(p for p in self.points if p[0] <= index)
            after = min(p for p in self.points if p[0] > index)
            out.append(wall / ((before[1] + after[1]) / 2.0))
        return out


def weighted_median(pairs: List[Tuple[float, float]]) -> float:
    """The value at which (value, weight) pairs, sorted by value, reach
    half their total weight."""
    pairs = sorted(pairs)
    half = sum(weight for _, weight in pairs) / 2.0
    covered = 0.0
    for value, weight in pairs:
        covered += weight
        if covered >= half:
            return value
    raise ValueError("weighted_median of no weight")


def sha256_json(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode(),
    ).hexdigest()


def rows_digest(experiment_id: str, rows: List[Dict[str, Any]]) -> str:
    """sha256 of an experiment's rows, wall-clock columns dropped (the
    golden-hash encoding of ``tests/experiments``)."""
    dropped = WALL_CLOCK_COLUMNS.get(experiment_id)
    if dropped:
        rows = [
            {k: v for k, v in row.items() if k not in dropped} for row in rows
        ]
    return sha256_json(rows)


@dataclasses.dataclass
class Op:
    """One operation's outcome within a pass."""

    name: str
    wall_s: float
    digest: Optional[str] = None
    error: Optional[str] = None
    output: Any = None


# What running one operation returns: (digest, error or None, output).
Outcome = Tuple[str, Optional[str], Any]


def run_pass(workload, after_op: Callable[[Op], None] = lambda op: None) -> List[Op]:
    """Run each of the workload's operations once, timing each.

    An operation that raises is recorded as failed and the pass goes
    on.  ``after_op`` runs between operations, outside their timing.
    """
    workload.before_pass()
    ops = []
    for name, run in workload.operations():
        start = time.perf_counter()
        try:
            digest, error, output = run()
        except Exception:
            op = Op(
                name, time.perf_counter() - start,
                error="raised " + traceback.format_exc(limit=-1).strip(),
            )
        else:
            op = Op(name, time.perf_counter() - start, digest, error, output)
        ops.append(op)
        after_op(op)
    return ops


class Checker:
    """Compares operation digests with the committed ones.

    ``table`` maps an operation to one digest (its output does not
    depend on the seed) or to ``{seed: digest}``.  A seed without a
    committed digest is checked against the operation's first output in
    this process instead.
    """

    def __init__(self, table: Dict[str, Any], seed: int) -> None:
        self.table = table
        self.seed = str(seed)
        self.first: Dict[str, str] = {}

    def check(self, op: Op) -> Optional[str]:
        """A failure message, or None when the output is correct."""
        if op.error is not None:
            return f"{op.name}: {op.error}"
        if op.name not in self.table:
            return f"{op.name}: no committed digest"
        entry = self.table[op.name]
        expected = entry if isinstance(entry, str) else entry.get(self.seed)
        if expected is None:
            expected = self.first.setdefault(op.name, op.digest)
        if op.digest != expected:
            return (
                f"{op.name}: output digest {op.digest[:12]} != "
                f"expected {expected[:12]}"
            )
        return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class ExperimentSweep:
    """A quick-tier pass over a fixed list of experiments.

    ``cold`` empties the artifact cache before every pass; otherwise the
    set-up runs one untimed pass that fills it.
    """

    def __init__(
        self, ids: Tuple[str, ...], seed: int, cold: bool,
        backend: str = "analytic",
    ) -> None:
        self.ids = ids
        self.seed = seed
        self.cold = cold
        self.backend = backend
        self.digest_table = "trace" if backend == "trace" else "analytic"

    def import_modules(self) -> None:
        from repro.experiments.registry import specs

        specs()

    def prepare(self) -> List[Op]:
        from repro.runtime import RunSpec, Session

        self.session = Session(RunSpec(seed=self.seed, backend=self.backend))
        return [] if self.cold else run_pass(self)

    def before_pass(self) -> None:
        from repro.perf.cache import clear_cache

        if self.cold:
            clear_cache()

    def operations(self) -> List[Tuple[str, Callable[[], Outcome]]]:
        return [
            (experiment_id, functools.partial(self._run, experiment_id))
            for experiment_id in self.ids
        ]

    def _run(self, experiment_id: str) -> Outcome:
        from repro.experiments.registry import run_all

        rows = run_all(
            only=[experiment_id], quick=True, session=self.session,
        )[0].rows
        return rows_digest(experiment_id, rows), None, rows

    @staticmethod
    def sim_values(ops: List[Op]) -> Dict[str, float]:
        """Mean GoPIM speedup over Serial across fig13's datasets."""
        for op in ops:
            if op.name == "fig13" and op.output:
                speedups = [
                    row["speedup"] for row in op.output
                    if row["system"] == "GoPIM"
                ]
                return {"gopim_speedup_x": statistics.fmean(speedups)}
        return {}


class ServingGrid:
    """Direct ``run_serving`` calls over a grid of serving scenarios."""

    digest_table = "serving"

    def __init__(
        self, seed: int, requests: int = SERVING_REQUESTS,
        grid: Tuple[Tuple[str, float, str], ...] = SERVING_GRID,
    ) -> None:
        self.seed = seed
        self.requests = requests
        self.grid = grid

    @staticmethod
    def label(process: str, load: float, balancer: str, requests: int) -> str:
        return f"{process}/{load}/{balancer}/{requests}"

    def import_modules(self) -> None:
        import repro.serving  # noqa: F401

    def prepare(self) -> List[Op]:
        from repro.runtime import RunSpec, Session
        from repro.serving import ServingSpec, build_serving_system

        self.session = Session(RunSpec(seed=self.seed))
        defaults = ServingSpec()
        build_serving_system(
            self.session, defaults.dataset,
            num_servers=defaults.num_servers, max_batch=defaults.max_batch,
        )
        return []

    def before_pass(self) -> None:
        pass

    def operations(self) -> List[Tuple[str, Callable[[], Outcome]]]:
        return [
            (self.label(*scenario, self.requests),
             functools.partial(self._run, *scenario))
            for scenario in self.grid
        ]

    def _run(self, process: str, load: float, balancer: str) -> Outcome:
        from repro.serving import ServingSpec, run_serving

        stats = run_serving(self.session, ServingSpec(
            num_requests=self.requests, process=process, load=load,
            balancer=balancer, seed=self.seed,
        )).stats
        return (
            sha256_json(dataclasses.asdict(stats)),
            self.invariant_error(stats), stats,
        )

    def invariant_error(self, stats) -> Optional[str]:
        """Checks that hold at every seed, digest or not."""
        if stats.num_requests != self.requests:
            return f"served {stats.num_requests} of {self.requests} requests"
        if not (
            stats.latency_p50_ns <= stats.latency_p95_ns
            <= stats.latency_p99_ns <= stats.latency_max_ns
        ):
            return "latency percentiles out of order"
        if not 0.0 < stats.bottleneck_utilization <= 1.0:
            return f"utilisation {stats.bottleneck_utilization} outside (0, 1]"
        return None

    def sim_values(self, ops: List[Op]) -> Dict[str, float]:
        served = [op.output for op in ops if op.output is not None]
        values = {
            "requests": float(sum(s.num_requests for s in served)),
            "queue_depth": statistics.fmean(
                s.mean_queue_depth for s in served
            ) if served else 0.0,
        }
        p99 = self.label(*P99_SCENARIO, self.requests)
        for op in ops:
            if op.name == p99 and op.output is not None:
                values["p99_us"] = op.output.latency_p99_ns / 1000.0
        return values


def make_workload(
    name: str, seed: int, smoke: bool = False,
    only: Optional[List[str]] = None,
):
    """The runner for one named workload (``only``: a subset of its
    operations, for regenerating digests)."""
    if name in ("sweep-cold", "sweep-warm", "accel-trace"):
        if name == "accel-trace":
            ids = SMOKE_TRACE_IDS if smoke else TRACE_IDS
        else:
            ids = SMOKE_SWEEP_IDS if smoke else SWEEP_IDS
        ids = tuple(i for i in ids if only is None or i in only)
        if name == "accel-trace":
            return ExperimentSweep(ids, seed, cold=False, backend="trace")
        return ExperimentSweep(ids, seed, cold=name == "sweep-cold")
    if name == "serving-scale":
        requests, grid = SMOKE_SERVING if smoke else (SERVING_REQUESTS, SERVING_GRID)
        grid = tuple(
            s for s in grid
            if only is None or ServingGrid.label(*s, requests) in only
        )
        return ServingGrid(seed, requests, grid)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def load_digests() -> Dict[str, Dict[str, Any]]:
    return json.loads(DIGESTS_PATH.read_text())


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def run_child(config: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one child-process measurement (see the module docstring)."""
    mode = config["mode"]
    if mode == "digests":
        digests = {}
        for seed in config["seeds"]:
            workload = make_workload(
                config["workload"], seed, config["smoke"], config.get("only"),
            )
            workload.import_modules()
            workload.prepare()
            digests[str(seed)] = {op.name: op.digest for op in run_pass(workload)}
        return {"digests": digests}
    workload = make_workload(config["workload"], config["seed"], config["smoke"])
    workload.import_modules()
    tracer = None
    if mode == "traced":
        from e2e_tracer import Tracer

        tracer = Tracer().install()
    fill = workload.prepare()
    ready_at = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    calibration = Calibration()
    try:
        # The machine's speed right after set-up, to scale setup_s.
        out = {
            "ready_at": ready_at,
            "setup_calib_s": statistics.median(
                calibration.loop() for _ in range(SETUP_CALIBRATIONS)
            ),
        }
        if mode != "setup":
            out.update(timed_passes(config, workload, fill, calibration, tracer))
        return out
    finally:
        calibration.close()


def timed_passes(
    config: Dict[str, Any], workload, fill: List[Op],
    calibration: Calibration, tracer,
) -> Dict[str, Any]:
    """Run and check passes until the budget (or ``passes``) is spent.

    Under a tracer the passes alternate traced and untraced, starting
    traced, ``passes`` of each: a traced pass against the untraced one
    after it gives the tracer's own cost under the same host load.
    """
    checker = Checker(load_digests()[workload.digest_table], config["seed"])
    failures = [f for f in map(checker.check, fill) if f]
    attempted = len(fill)
    passes: List[List[Op]] = []
    target = config.get("passes")
    if target is not None and tracer is not None:
        target *= 2
    calibration.run()
    started = time.monotonic()
    while True:
        if tracer is not None and len(passes) % 2 == 0:
            tracer.context = ("pass", len(passes) // 2)
            tracer.install()
            ops = run_pass(workload, calibration.after_op)
            tracer.uninstall()
        else:
            ops = run_pass(workload, calibration.after_op)
        passes.append(ops)
        attempted += len(ops)
        failures += [f for f in map(checker.check, ops) if f]
        pass_walls = [sum(op.wall_s for op in p) for p in passes]
        if target is not None:
            if len(passes) >= target:
                break
        elif (
            time.monotonic() - started + statistics.median(pass_walls)
            > config["seconds"]
        ):
            break
    calibration.finish()
    norms = calibration.normalised()
    per_pass = len(passes[0])
    pass_norms = [
        sum(norms[i:i + per_pass]) for i in range(0, len(norms), per_pass)
    ]
    out: Dict[str, Any] = {
        "pass_walls": pass_walls,
        "pass_norms": pass_norms,
        "calibrations": [seconds for _, seconds in calibration.points],
        "op_walls": {
            op.name: [p[i].wall_s for p in passes]
            for i, op in enumerate(passes[0])
        },
        "digests": {op.name: op.digest for op in passes[0]},
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "sim": workload.sim_values(passes[0]),
    }
    if tracer is not None:
        traced = range(0, len(passes), 2)
        summary = tracer.summary(len(traced))
        summary["coverage"] = statistics.fmean(
            tracer.root_seconds(("pass", i // 2)) / pass_walls[i]
            for i in traced
        )
        # Each traced operation against itself in the untraced pass
        # after it, weighted by its wall: a burst of host load during one
        # long operation then moves the estimate little, where it would
        # move a ratio of pass walls by its whole length.
        ratios = []
        for i in traced:
            for k in range(per_pass):
                untraced = norms[(i + 1) * per_pass + k]
                ratios.append((norms[i * per_pass + k] / untraced, untraced))
        summary["overhead_pct"] = 100.0 * (weighted_median(ratios) - 1.0)
        out["trace"] = summary
        if config.get("spans"):
            tracer.write_spans(
                config["spans"], workload=config["workload"],
                run=config.get("run", 0),
            )
    return out


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    # One CPU for the workload and, inherited, its calibration helper:
    # both see the same neighbours' load, and no migrations.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if config["mode"] == "calibrator":
        # One loop per request line, until stdin closes.
        for _ in sys.stdin:
            print(calibrate(), flush=True)
        return 0
    with contextlib.redirect_stdout(sys.stderr):
        out = run_child(config)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
