"""Hot-path microbenchmarks: vectorized kernels vs loop references.

Times the optimisation targets of the perf PRs against the retained
``*_reference`` implementations (``tests/oracles/``, plus
``greedy_allocation_reference`` in ``src/``) and writes the results (plus
speedups) to ``BENCH_hotpaths.json`` at the repo root:

* **spmm** — ``Graph.adjacency_matmul`` (cached scipy CSR) vs the
  ``np.add.at`` scatter reference, on a 4096-vertex dc-SBM graph with
  128-dim features.  Target: >= 3x.
* **simulator** — ``simulate_pipeline`` (per-row scan recurrence) vs the
  double-loop reference on an 8-stage x 512-micro-batch grid.
  Target: >= 5x.
* **functional** — the full on-crossbar GCN forward (quantisation + read
  noise) with the vectorized aggregation/batch-MVM path vs the per-edge
  one-hot reference, on a 4096-vertex / ~64k-arc / 128-dim workload.
  The two paths must agree bit-for-bit (outputs *and* ``CrossbarStats``)
  — the bench asserts that, not just the speedup.  Target: >= 20x.
* **allocator** — the vectorized ``exhaustive_allocation`` (bisected
  feasibility frontier + one broadcast requirement grid + deduped
  refinement) vs the retained per-candidate Python sweep, on a 64-stage
  synthetic problem with deep replica caps.  The two must return
  byte-identical allocations — asserted, not assumed.  Target: >= 10x.
* **greedy_allocation** — the run-skipping Algorithm 1 engine
  (``greedy_allocation_counts``: sorted static-value entry stream,
  vectorized no-bonus consumption waves) vs the retained per-purchase
  reference heap loop, across three tiers: the quick-sweep problem
  scale, a synthesis-scale no-bonus problem (512 stages, budget 5e5),
  and a bonus-live problem (dear replicas, ``B`` = 32) that exercises
  the scalar fast path.  Also times ``allocate_many`` (lock-step
  ``[P, S]`` batch) against a serial engine loop over
  refinement-shaped sub-problems, and the content-keyed allocation
  cache warm vs cold.  Every tier's replica vector must be
  byte-identical to the reference — asserted, not assumed.  Targets:
  >= 10x on the synthesis tier, >= 2x with the bonus live, batched
  beats serial.
* **serving** — ``simulate_serving`` (the batched release-time scan
  engine, round-robin path) vs the scalar ``simulate_serving_reference``
  event loop on a 4-stage x many-batch serving timeline.  Integer
  nanoseconds make the two *byte*-identical — asserted like the other
  fast paths.  Target: >= 10x.
* **backends** — the trace backend's compile-once economics: cold
  whole-chain lowering vs the memoised epoch-program ArtifactCache
  lookup (>= 5x, hard in ``--quick``), epoch replay throughput in
  instruction records per second, and the warm whole-epoch
  ``stage_time_matrix`` wall ratio of trace vs analytic.
* **sweep** — the end-to-end quick experiment sweep through ``run_all``,
  serial vs ``jobs=N`` (forked workers, longest-job-first scheduling),
  with content-keyed caches warm in both runs so the delta is
  scheduling, not memoisation.  The report includes the visible CPU
  count and the LPT lower-bound speedup computed from the measured
  per-experiment durations, so a 1-CPU container's inevitable <1x
  result is distinguishable from a scheduling regression.  The serial
  run is phase-profiled (``repro.perf.profile``) and its attribution is
  written to ``--phases`` (default ``BENCH_phases.json`` at the repo
  root) with the attributed share of wall time as ``phase_coverage``.

``--quick`` shrinks problem sizes and repeat counts for CI smoke runs
and turns the regression thresholds into hard failures: functional
speedup must exceed 5x, the allocator must hold its 10x, the greedy
engine must hold 10x on its synthesis tier (2x with the bonus live,
1.3x batched, 5x memoised), phase coverage
must stay above 0.75, and the parallel sweep must beat serial
(speedup > 1.0) whenever more than one CPU is visible — on a single
CPU the guard only requires bounded pool overhead (> 0.8x).
``benchmarks/perf/check_regression.py`` compares the written report
against the committed baseline with a tolerance band.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_hotpaths.py [--quick]
        [--out BENCH_hotpaths.json] [--jobs N] [--phases PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, Optional

import numpy as np

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(1, REPO_ROOT)  # tests.oracles: the reference loops

from repro.graphs.generators import dc_sbm_graph  # noqa: E402
from repro.pipeline.simulator import (  # noqa: E402
    ScheduleMode,
    simulate_pipeline,
)
from tests.oracles.pipeline import simulate_pipeline_reference  # noqa: E402

# Quick-mode sweep subset: enough total work (~13 s warm) that pool
# overhead is a small fraction, and no single experiment dominates, so
# the parallel guard measures scheduling rather than one long pole.
QUICK_SWEEP_IDS = [
    "fig04", "fig13", "fig16", "abl-features", "abl-samples",
    "abl-scheduler",
]


def visible_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_spmm(quick: bool) -> Dict[str, float]:
    """Cached scipy CSR SpMM vs the np.add.at scatter reference."""
    from tests.oracles.graph_build import adjacency_matmul_reference

    num_vertices = 1024 if quick else 4096
    feature_dim = 64 if quick else 128
    repeats = 3 if quick else 10
    graph = dc_sbm_graph(
        num_vertices=num_vertices,
        num_communities=max(2, num_vertices // 256),
        avg_degree=16.0,
        random_state=0,
        name="bench-spmm",
    )
    rng = np.random.default_rng(0)
    dense = rng.standard_normal(
        (num_vertices, feature_dim)
    ).astype(np.float32)

    vec = best_of(lambda: graph.adjacency_matmul(dense), repeats)
    ref = best_of(
        lambda: adjacency_matmul_reference(graph, dense), repeats,
    )
    np.testing.assert_allclose(
        graph.adjacency_matmul(dense),
        adjacency_matmul_reference(graph, dense),
        rtol=1e-4, atol=1e-4,
    )
    return {
        "num_vertices": num_vertices,
        "feature_dim": feature_dim,
        "num_arcs": graph.num_arcs,
        "vectorized_s": vec,
        "reference_s": ref,
        "speedup": ref / vec,
    }


def bench_simulator(quick: bool) -> Dict[str, float]:
    """Vectorized pipeline recurrence vs the double-loop reference."""
    num_stages = 8
    num_mbs = 128 if quick else 512
    repeats = 3 if quick else 10
    rng = np.random.default_rng(1)
    times = rng.uniform(1.0, 100.0, size=(num_stages, num_mbs))

    def run_all_modes(sim):
        for mode in ScheduleMode:
            sim(times, mode=mode, microbatches_per_batch=4)

    vec = best_of(lambda: run_all_modes(simulate_pipeline), repeats)
    ref = best_of(
        lambda: run_all_modes(simulate_pipeline_reference), repeats,
    )
    for mode in ScheduleMode:
        a = simulate_pipeline(times, mode=mode, microbatches_per_batch=4)
        b = simulate_pipeline_reference(
            times, mode=mode, microbatches_per_batch=4,
        )
        np.testing.assert_allclose(a.ends, b.ends, rtol=1e-12, atol=1e-9)
    return {
        "num_stages": num_stages,
        "num_microbatches": num_mbs,
        "vectorized_s": vec,
        "reference_s": ref,
        "speedup": ref / vec,
    }


def bench_functional(quick: bool) -> Dict[str, object]:
    """On-crossbar GCN forward: batched-read path vs per-edge loop.

    Both paths run from fresh grids with the same seed, so the noise
    streams line up and the results — outputs and stats — must match
    bit-for-bit.  Raises if they do not.
    """
    from repro.gcn.model import GCN
    from repro.hardware.functional_gcn import FunctionalGCN
    from tests.oracles.functional import PerEdgeFunctionalGCN

    num_vertices = 256 if quick else 4096
    feature_dim = 32 if quick else 128
    avg_degree = 8.0 if quick else 16.0
    graph = dc_sbm_graph(
        num_vertices=num_vertices,
        num_communities=max(2, num_vertices // 256),
        avg_degree=avg_degree,
        random_state=2,
        name="bench-functional",
    )
    rng = np.random.default_rng(2)
    features = rng.standard_normal(
        (num_vertices, feature_dim)
    ).astype(np.float32)
    model = GCN(
        [(feature_dim, feature_dim), (feature_dim, feature_dim // 2)],
        random_state=3,
    )

    def make(vectorized: bool) -> FunctionalGCN:
        # Fresh grids per run: crossbar RNG streams advance with use, so
        # a fair (and bit-comparable) run always starts from seed state.
        cls = FunctionalGCN if vectorized else PerEdgeFunctionalGCN
        return cls(
            model, quantize=True, read_noise_sigma=0.05, random_state=17,
        )

    repeats = 2 if quick else 3
    vec = min(
        _timed(lambda: make(True).forward(graph, features))
        for _ in range(repeats)
    )
    ref = _timed(lambda: make(False).forward(graph, features))

    vectorized = make(True)
    reference = make(False)
    out_vec = vectorized.forward(graph, features)
    out_ref = reference.forward(graph, features)
    stats_vec = vectorized.stats()
    stats_ref = reference.stats()
    if not np.array_equal(out_vec, out_ref):
        raise AssertionError(
            "functional vectorized forward diverged from the reference"
        )
    if (stats_vec.mvm_reads, stats_vec.row_writes, stats_vec.busy_ns) != (
        stats_ref.mvm_reads, stats_ref.row_writes, stats_ref.busy_ns
    ):
        raise AssertionError(
            "functional vectorized CrossbarStats diverged from the reference"
        )
    return {
        "num_vertices": num_vertices,
        "feature_dim": feature_dim,
        "num_arcs": graph.num_arcs,
        "vectorized_s": vec,
        "reference_s": ref,
        "speedup": ref / vec,
        "bit_identical": True,
        "phase_times_s": vectorized.phase_times_s,
    }


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_allocator(quick: bool) -> Dict[str, object]:
    """Vectorized exhaustive allocator vs the per-candidate Python sweep.

    The synthetic problem is sized so the candidate sweep — the part the
    vectorization removes — dominates: a moderate budget keeps the shared
    greedy refinement cheap while deep caps (4096) give the reference
    thousands of candidate times to probe one by one.
    """
    from repro.allocation.baselines import exhaustive_allocation
    from repro.allocation.problem import AllocationProblem
    from tests.oracles.allocation import exhaustive_allocation_reference

    num_stages = 64
    rng = np.random.default_rng(42)
    problem = AllocationProblem(
        stage_names=[f"S{i}" for i in range(num_stages)],
        times_ns=rng.uniform(100.0, 50000.0, num_stages),
        crossbars_per_replica=rng.integers(8, 65, num_stages),
        budget=1024,
        replica_caps=np.full(num_stages, 4096, dtype=np.int64),
        num_microbatches=32,
    )
    repeats = 1 if quick else 3
    # memoize=False: this section guards the vectorized candidate sweep,
    # not the content-keyed result cache (the greedy_allocation section
    # benches that) — a warm cache hit here would measure nothing.
    vec = best_of(
        lambda: exhaustive_allocation(problem, memoize=False), repeats,
    )
    ref = best_of(lambda: exhaustive_allocation_reference(problem), repeats)
    a = exhaustive_allocation(problem, memoize=False)
    b = exhaustive_allocation_reference(problem)
    if not np.array_equal(a.replicas, b.replicas):
        raise AssertionError(
            "vectorized exhaustive allocation diverged from the reference"
        )
    return {
        "num_stages": num_stages,
        "budget": problem.budget,
        "replica_cap": 4096,
        "vectorized_s": vec,
        "reference_s": ref,
        "speedup": ref / vec,
        "bit_identical": True,
        "makespan_ns": a.makespan_ns,
    }


def bench_greedy(quick: bool) -> Dict[str, object]:
    """Run-skipping Algorithm 1 engine vs the reference heap loop.

    Three single-problem tiers cover the engine's regimes:

    * ``small`` — the quick-sweep problem scale (11 stages, budget in
      the hundreds), where run-skipping buys little; this tier only
      records the constant-factor story, no guard.
    * ``synthesis`` — 512 stages, budget 5e5, cheap replicas, no max
      bonus: the vectorized consumption waves eat thousands of
      purchases per ``argsort``.  Headline tier, >= 10x guard.
    * ``bonus`` — dear replicas (cost 8..64) with the ``B``-stage bonus
      live, which forces the scalar fast path; >= 2x guard.

    The ``batched`` tier times ``allocate_many`` on a fleet of
    refinement-shaped sub-problems (the exhaustive allocator's workload)
    against a serial engine loop, and ``memoised`` times a warm
    content-keyed cache hit against the cold search.  Every tier's
    replica vector is byte-compared against the reference loop — the
    bench fails on divergence, not just on a slow run.
    """
    from repro.allocation.batched import allocate_many
    from repro.allocation.engine import greedy_allocation_counts
    from repro.allocation.greedy import (
        greedy_allocation,
        greedy_allocation_reference,
    )
    from repro.allocation.problem import AllocationProblem
    from repro.perf import clear_cache

    def make(num_stages, budget, cost_lo, cost_hi, mbs, seed):
        rng = np.random.default_rng(seed)
        return AllocationProblem(
            stage_names=[f"S{i}" for i in range(num_stages)],
            times_ns=np.exp(rng.normal(8.0, 2.5, num_stages)),
            crossbars_per_replica=rng.integers(
                cost_lo, cost_hi + 1, num_stages,
            ),
            budget=budget,
            replica_caps=np.full(num_stages, 1 << 20, dtype=np.int64),
            num_microbatches=mbs,
        )

    def tier(problem, include_max_bonus, repeats):
        vec = best_of(
            lambda: greedy_allocation_counts(problem, include_max_bonus),
            repeats,
        )
        ref = best_of(
            lambda: greedy_allocation_reference(problem, include_max_bonus),
            repeats,
        )
        reference = greedy_allocation_reference(problem, include_max_bonus)
        counts = greedy_allocation_counts(problem, include_max_bonus)
        if reference.replicas.tobytes() != counts.tobytes():
            raise AssertionError(
                "run-skipping greedy engine diverged from the reference loop"
            )
        return {
            "num_stages": len(problem.stage_names),
            "budget": problem.budget,
            "include_max_bonus": include_max_bonus,
            "vectorized_s": vec,
            "reference_s": ref,
            "speedup": ref / vec,
            "bit_identical": True,
        }

    repeats = 2 if quick else 5
    small = tier(make(11, 700, 1, 4, 12, 0), True, repeats)
    # The guarded tiers keep their full size even in --quick: the 10x
    # claim is about the synthesis regime, and shrinking the problem
    # would shrink the run lengths the engine skips.
    # Best-of-4 even in --quick: the vectorized side is ~20 ms, so a
    # single noisy sample would move the guarded ratio by 2-3x.
    synthesis = tier(make(512, 500_000, 1, 4, 32, 1), False, 4)
    bonus = tier(make(256, 200_000, 8, 64, 32, 2), True, 4)

    # Batched: the exhaustive allocator's refinement fleet — many
    # mid-size problems whose per-problem engine overhead (stream
    # generation, argsort) the [P, S] walk amortises away.
    fleet = [make(64, 1024, 1, 4, 32, 100 + i) for i in range(64)]
    fleet_repeats = 1 if quick else 3
    batched_s = best_of(
        lambda: allocate_many(fleet, memoize=False), fleet_repeats,
    )
    serial_s = best_of(
        lambda: [greedy_allocation_counts(p, True) for p in fleet],
        fleet_repeats,
    )
    for problem, result in zip(fleet, allocate_many(fleet, memoize=False)):
        reference = greedy_allocation_reference(problem)
        if reference.replicas.tobytes() != result.replicas.tobytes():
            raise AssertionError(
                "allocate_many diverged from the reference loop"
            )
    batched = {
        "num_problems": len(fleet),
        "num_stages": 64,
        "vectorized_s": batched_s,
        "reference_s": serial_s,
        "speedup": serial_s / batched_s,
        "bit_identical": True,
    }

    # Memoised: a warm content-keyed cache hit vs the cold search on
    # the synthesis problem.  clear_cache() isolates the measurement
    # from whatever earlier sections left in the process-wide cache.
    clear_cache()
    memo_problem = make(256, 100_000, 1, 4, 32, 1)
    cold_s = best_of(
        lambda: greedy_allocation(memo_problem, False, memoize=False),
        1 if quick else 3,
    )
    greedy_allocation(memo_problem, False)  # populate
    warm_s = best_of(
        lambda: greedy_allocation(memo_problem, False), 3 if quick else 10,
    )
    warm = greedy_allocation(memo_problem, False)
    cold = greedy_allocation(memo_problem, False, memoize=False)
    if warm.replicas.tobytes() != cold.replicas.tobytes():
        raise AssertionError(
            "memoised allocation diverged from the cold search"
        )
    clear_cache()
    memoised = {
        "vectorized_s": warm_s,
        "reference_s": cold_s,
        "speedup": cold_s / warm_s,
        "bit_identical": True,
    }

    return {
        "small": small,
        "synthesis": synthesis,
        "bonus": bonus,
        "batched": batched,
        "memoised": memoised,
        # Headline numbers: the synthesis tier, where run-skipping is
        # the difference between milliseconds and a second-scale stall.
        "vectorized_s": synthesis["vectorized_s"],
        "reference_s": synthesis["reference_s"],
        "speedup": synthesis["speedup"],
        "bit_identical": True,
    }


def bench_serving(quick: bool) -> Dict[str, object]:
    """Batched serving timeline engine vs the scalar event loop.

    Round-robin balancing exercises the pure scan path (the JSQ fast
    path is a native-int sequential loop — faster than the reference,
    but not the vectorization this bench guards).
    """
    from repro.serving.engine import simulate_serving
    from tests.oracles.serving import simulate_serving_reference

    num_stages = 4
    num_batches = 5_000 if quick else 40_000
    num_servers = 4
    repeats = 2 if quick else 5
    rng = np.random.default_rng(7)
    dispatch = np.cumsum(
        rng.integers(100, 5_000, num_batches)
    ).astype(np.int64)
    times = rng.integers(
        500, 20_000, (num_stages, num_batches),
    ).astype(np.int64)

    vec = best_of(
        lambda: simulate_serving(dispatch, times, num_servers, "rr"),
        repeats,
    )
    ref = best_of(
        lambda: simulate_serving_reference(
            dispatch, times, num_servers, "rr",
        ),
        repeats,
    )
    a = simulate_serving(dispatch, times, num_servers, "rr")
    b = simulate_serving_reference(dispatch, times, num_servers, "rr")
    if not (
        np.array_equal(a.starts, b.starts)
        and np.array_equal(a.ends, b.ends)
        and np.array_equal(a.assignment, b.assignment)
    ):
        raise AssertionError(
            "batched serving engine diverged from the reference event loop"
        )
    return {
        "num_stages": num_stages,
        "num_batches": num_batches,
        "num_servers": num_servers,
        "vectorized_s": vec,
        "reference_s": ref,
        "speedup": ref / vec,
        "bit_identical": True,
    }


def bench_training(quick: bool) -> Dict[str, object]:
    """Replica-batched GCN training vs R serial trainer runs.

    Trains fleets of R link-prediction runs on one dc-SBM graph — the
    tab05/fig16 shape: a shared data seed with the update plan varied
    across replicas (vanilla vs ISU) — through ``train_replicas`` and
    through R runs of the serial ``LinkPredictionTrainer`` loop kept in
    ``tests/oracles/trainers.py``.  The shared seed lets the batched
    path share negative sampling and the epoch's edge-scatter pattern
    across the fleet, which is where the win comes from; per-replica
    loss and metric histories must still match the serial loop
    bit-for-bit — asserted, like the other fast paths.  The headline
    ``speedup`` is the R=4 fleet's — the group size the quick sweep
    actually trains (fig16/tab05 build R=4 groups); R=1 records the
    stacked path's singleton overhead and R=16 how the win fades once
    the stacked state outgrows the cache.  Each batched fleet trains in
    a session with its own empty cache, so every repeat times training,
    not a ``"training"`` memo hit.
    """
    from repro.gcn.batched import ReplicaSpec, train_replicas
    from repro.mapping.selective import build_update_plan
    from repro.perf.cache import ArtifactCache
    from repro.runtime import Session
    from tests.oracles.trainers import LinkPredictionTrainer

    num_vertices = 1024
    epochs = 3 if quick else 6
    repeats = 2 if quick else 3
    graph = dc_sbm_graph(
        num_vertices, 3, 32.0, random_state=5,
        feature_dim=128, feature_noise=4.0, intra_ratio=0.7,
        name="bench-training",
    )
    isu_plan = build_update_plan(graph, strategy="isu")

    def fleet_plans(R: int):
        # Half vanilla, half ISU — the Table 5 comparison, R/2 seeds each.
        return [None if r % 2 == 0 else isu_plan for r in range(R)]

    def serial_fleet(R: int):
        return [
            LinkPredictionTrainer(graph, random_state=0).train(
                epochs=epochs, update_plan=plan,
            )
            for plan in fleet_plans(R)
        ]

    def batched_fleet(R: int):
        with Session(cache=ArtifactCache()).use():
            return train_replicas([
                ReplicaSpec(
                    graph=graph, task="link", epochs=epochs, random_state=0,
                    update_plan=plan,
                )
                for plan in fleet_plans(R)
            ])

    fleets: Dict[str, Dict[str, float]] = {}
    headline = None
    for R in (1, 4, 16):
        serial_s = best_of(lambda: serial_fleet(R), repeats)
        batched_s = best_of(lambda: batched_fleet(R), repeats)
        serial_runs = serial_fleet(R)
        batched_runs = batched_fleet(R)
        for ref, fast in zip(serial_runs, batched_runs):
            if (
                ref.losses != fast.losses
                or ref.train_metrics != fast.train_metrics
                or ref.test_metrics != fast.test_metrics
            ):
                raise AssertionError(
                    "replica-batched training diverged from the serial "
                    f"trainers at R={R}"
                )
        epochs_per_s = R * epochs / batched_s
        fleets[str(R)] = {
            "serial_s": serial_s,
            "batched_s": batched_s,
            "speedup": serial_s / batched_s,
            "replica_epochs_per_s": epochs_per_s,
        }
        if R == 4:
            headline = (serial_s, batched_s)
    serial_s, batched_s = headline
    return {
        "num_vertices": num_vertices,
        "epochs": epochs,
        "task": "link",
        "replicas": fleets,
        "reference_s": serial_s,
        "vectorized_s": batched_s,
        "speedup": serial_s / batched_s,
        "bit_identical": True,
    }


def bench_sweep(
    quick: bool, jobs: int, phases_path: Optional[str] = None,
) -> Dict[str, object]:
    """End-to-end quick experiment sweep, serial vs scheduled pool."""
    from repro.experiments.harness import combine_markdown
    from repro.experiments.registry import WALL_CLOCK_EXPERIMENTS, run_all
    from repro.experiments.sweep import load_wall_times, wall_time_key
    from repro.perf import profile

    only = QUICK_SWEEP_IDS if quick else None
    # Warm the in-process caches so both timings measure scheduling; the
    # warm run also records per-experiment durations, so the parallel
    # run below schedules longest-first from measured times.
    run_all(quick=True, only=only, jobs=1)
    # Best-of-2 on both sides: one quick-sweep run is short enough that
    # transient host load moves a single sample past the guard bands;
    # the min is stable.  Results are byte-identical across repeats, so
    # any sample's output stands for the run.
    phase_log: Dict[str, dict] = {}
    serial_s = float("inf")
    for attempt in range(2):
        log: Dict[str, dict] = {}
        start = time.perf_counter()
        serial = run_all(quick=True, only=only, jobs=1, phase_log=log)
        elapsed = time.perf_counter() - start
        if elapsed < serial_s:
            serial_s, phase_log = elapsed, log
    parallel_s = float("inf")
    for attempt in range(2):
        start = time.perf_counter()
        parallel = run_all(quick=True, only=only, jobs=jobs)
        parallel_s = min(parallel_s, time.perf_counter() - start)

    def deterministic(results):
        # Wall-clock-measuring experiments differ between *any* two
        # runs; the identity claim covers the deterministic tables.
        return combine_markdown([
            r for r in results
            if r.experiment_id not in WALL_CLOCK_EXPERIMENTS
        ])

    identical = deterministic(serial) == deterministic(parallel)

    times = load_wall_times()
    durations = {
        r.experiment_id: times.get(wall_time_key(r.experiment_id, True))
        for r in serial
    }
    known = [t for t in durations.values() if t is not None]
    # LPT lower bound on the parallel makespan: no schedule beats
    # max(longest job, total work / workers).  The achievable speedup
    # ceiling — what "2x at jobs=4" must be judged against.
    lpt_bound = None
    if known:
        total = sum(known)
        bound = max(max(known), total / jobs)
        lpt_bound = total / bound if bound > 0 else None

    phase_report = profile.phase_report(
        serial_s, per_experiment=phase_log, quick=True,
    )
    if phases_path:
        profile.write_phase_report(
            phases_path, serial_s, per_experiment=phase_log, quick=True,
        )
    return {
        "experiments": len(serial),
        "jobs": jobs,
        "cpus": visible_cpus(),
        "scheduler": "lpt-fork",
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "lpt_bound_speedup": lpt_bound,
        "per_experiment_s": durations,
        "byte_identical": identical,
        "phase_coverage": phase_report["coverage"],
        "phases": phase_report["phases"],
    }


def bench_backends(quick: bool) -> Dict[str, object]:
    """Trace-backend economics: compile cold vs memoised warm, replay rate.

    The trace backend's contract is *compile once, replay everywhere*:
    lowering an epoch to its instruction stream pays the busiest-crossbar
    write-histogram pass, while a warm replay is a handful of vector ops
    over the memoised records.  Times three things on a 4096-vertex
    workload:

    * cold compile (uncached ``compile_epoch_program``, whole stage
      chain) vs the memoised warm lookup (``compiled_epoch_program``
      hitting the in-memory ArtifactCache) — the section ``speedup``,
      hard-guarded >= 5x in ``--quick``;
    * replay throughput in instruction records per second: one epoch
      replay per count of a replica sweep;
    * the whole-epoch ``stage_time_matrix`` wall ratio, analytic vs
      trace (both warm) — what ``--backend trace`` costs end to end.
    """
    from repro.backends import EpochProgram, get_backend
    from repro.backends.trace import (
        compile_epoch_program,
        compiled_epoch_program,
        replay_stage_times,
    )
    from repro.hardware.config import DEFAULT_CONFIG
    from repro.stages.latency import StageTimingModel
    from repro.stages.workload import Workload

    vertices = 2048 if quick else 4096
    graph = dc_sbm_graph(
        num_vertices=vertices, num_communities=8, avg_degree=16.0,
        random_state=11, feature_dim=128, name="bench-backends",
    )
    workload = Workload(
        graph=graph, layer_dims=[(128, 128), (128, 64)],
        micro_batch=64, name="bench-backends",
    )
    timing = StageTimingModel(workload, DEFAULT_CONFIG)
    repeats = 3 if quick else 5

    cold_s = best_of(lambda: compile_epoch_program(timing), repeats)
    warm_s = best_of(lambda: compiled_epoch_program(timing), repeats)

    program = compiled_epoch_program(timing)
    records = program.size
    replica_vectors = [
        np.full(len(timing.stages), replicas) for replicas in (1, 2, 4, 8)
    ]

    def replay_all() -> None:
        for replicas in replica_vectors:
            replay_stage_times(program, timing, replicas)

    replay_s = best_of(replay_all, repeats)
    replayed = records * len(replica_vectors)

    analytic_s = best_of(
        lambda: get_backend("analytic").stage_time_matrix(
            EpochProgram(timing=timing),
        ),
        repeats,
    )
    trace_s = best_of(
        lambda: get_backend("trace").stage_time_matrix(
            EpochProgram(timing=timing),
        ),
        repeats,
    )

    return {
        "vertices": vertices,
        "stages": len(timing.stages),
        "instruction_records": int(records),
        "reference_s": cold_s,       # cold compile, whole stage chain
        "vectorized_s": warm_s,      # memoised warm lookup
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "replay_s": replay_s,
        "replay_records_per_s": (
            replayed / replay_s if replay_s > 0 else float("inf")
        ),
        "epoch_matrix_analytic_s": analytic_s,
        "epoch_matrix_trace_s": trace_s,
        "trace_vs_analytic_wall": (
            trace_s / analytic_s if analytic_s > 0 else float("inf")
        ),
        "bit_identical": None,  # priced models differ by design
    }


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / few repeats (CI smoke); "
                             "regression guards become hard failures")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_hotpaths.json"))
    parser.add_argument("--jobs", type=int,
                        default=min(4, visible_cpus()))
    parser.add_argument("--phases",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_phases.json"),
                        help="phase-attribution report for the serial "
                             "sweep run (empty string disables)")
    args = parser.parse_args(argv)

    report = {
        "quick": args.quick,
        "cpus": visible_cpus(),
        "spmm": bench_spmm(args.quick),
        "simulator": bench_simulator(args.quick),
        "functional": bench_functional(args.quick),
        "allocator": bench_allocator(args.quick),
        "greedy_allocation": bench_greedy(args.quick),
        "serving": bench_serving(args.quick),
        "training": bench_training(args.quick),
        "sweep": bench_sweep(args.quick, args.jobs, args.phases or None),
        "backends": bench_backends(args.quick),
    }
    failures = []
    for name, target, quick_target in (
        ("spmm", 3.0, None),
        ("simulator", 5.0, None),
        ("functional", 20.0, 5.0),
        ("allocator", 10.0, 10.0),
        # Headline = the synthesis tier; the 10x holds in --quick too
        # because the tier keeps its full size there.
        ("greedy_allocation", 10.0, 10.0),
        ("serving", 10.0, 5.0),
        # Training is bandwidth-bound and bit-identity-pinned, so the
        # batched win is sharing work (sampling, scatter patterns), not
        # reordering math — ~2x standalone.  On heterogeneous hosts the
        # compute-bound serial side runs ~2x faster when the container
        # lands on a fast core while the bandwidth-bound batched side
        # barely moves, compressing the honest ratio to ~1.1-1.3x; the
        # quick guard therefore only pins "batched never loses".
        ("training", 1.5, 1.05),
        # Compile-once must pay for itself: the memoised warm lookup
        # must beat a cold whole-chain compile >= 5x even in quick mode
        # (it skips the write-histogram pass entirely).
        ("backends", 5.0, 5.0),
    ):
        section = report[name]
        print(f"{name:<10} {section['speedup']:8.1f}x "
              f"(ref {section['reference_s'] * 1e3:9.2f} ms, "
              f"vec {section['vectorized_s'] * 1e3:9.2f} ms)")
        if not args.quick and section["speedup"] < target:
            print(f"  WARNING: below the {target:g}x target")
        if args.quick and quick_target and section["speedup"] < quick_target:
            failures.append(
                f"{name} speedup {section['speedup']:.1f}x is below the "
                f"{quick_target:g}x regression guard"
            )
    greedy = report["greedy_allocation"]
    for tier_name, quick_floor in (
        ("bonus", 2.0),       # scalar fast path with the B-bonus live
        ("batched", 1.3),     # [P, S] walk vs serial engine loop
        ("memoised", 5.0),    # warm cache hit vs cold search
    ):
        tier = greedy[tier_name]
        print(f"  greedy/{tier_name:<8} {tier['speedup']:6.1f}x "
              f"(ref {tier['reference_s'] * 1e3:9.2f} ms, "
              f"vec {tier['vectorized_s'] * 1e3:9.2f} ms)")
        if args.quick and tier["speedup"] < quick_floor:
            failures.append(
                f"greedy_allocation/{tier_name} speedup "
                f"{tier['speedup']:.1f}x is below the "
                f"{quick_floor:.1f}x regression guard"
            )
    backends = report["backends"]
    print(f"  backends/replay   {backends['replay_records_per_s']:,.0f} "
          f"records/s")
    print(f"  backends/wall     trace = "
          f"{backends['trace_vs_analytic_wall']:.2f}x analytic "
          f"(epoch matrix, warm)")
    sweep = report["sweep"]
    bound = sweep["lpt_bound_speedup"]
    bound_str = f"{bound:.2f}x" if bound else "n/a"
    print(f"{'sweep':<10} {sweep['speedup']:8.2f}x "
          f"(serial {sweep['serial_s']:6.2f} s, "
          f"jobs={sweep['jobs']} {sweep['parallel_s']:6.2f} s, "
          f"cpus={sweep['cpus']}, lpt-bound {bound_str}, "
          f"byte-identical: {sweep['byte_identical']}, "
          f"phase-coverage {sweep['phase_coverage']:.0%})")
    if not sweep["byte_identical"]:
        print("  ERROR: parallel sweep diverged from serial output")
        return 1
    if args.quick and sweep["phase_coverage"] < 0.75:
        failures.append(
            f"phase coverage {sweep['phase_coverage']:.0%} is below the "
            "75% regression guard"
        )
    if args.quick:
        # On one CPU a process pool cannot beat serial; only bounded
        # overhead is checkable.  With real parallelism available the
        # sweep must actually win.
        floor = 1.0 if sweep["cpus"] >= 2 else 0.8
        if sweep["speedup"] <= floor:
            failures.append(
                f"sweep speedup {sweep['speedup']:.2f}x is below the "
                f"{floor:.1f}x guard (cpus={sweep['cpus']})"
            )
    if failures:
        for failure in failures:
            print(f"  ERROR: {failure}")
        return 1

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
