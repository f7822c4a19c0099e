"""Phase-attributed profiler: exclusive attribution, nesting, reporting.

Totals since the last ``reset()`` are read as ``profile.since({})``.
"""

import threading
import time

import numpy as np

from repro.perf import profile


def test_context_manager_records_time_and_calls():
    profile.reset()
    with profile.phase(profile.PHASE_TIMING):
        time.sleep(0.02)
    totals = profile.since({})
    assert totals[profile.PHASE_TIMING]["calls"] == 1
    assert totals[profile.PHASE_TIMING]["seconds"] >= 0.015


def test_nested_phases_attribute_exclusively():
    profile.reset()
    with profile.phase(profile.PHASE_DATASET):
        time.sleep(0.02)
        with profile.phase(profile.PHASE_TIMING):
            time.sleep(0.03)
        time.sleep(0.02)
    totals = profile.since({})
    outer = totals[profile.PHASE_DATASET]["seconds"]
    inner = totals[profile.PHASE_TIMING]["seconds"]
    # Inner time is charged only to the inner phase; the outer phase
    # keeps only its own ~40 ms.
    assert inner >= 0.025
    assert 0.03 <= outer < 0.055
    assert totals[profile.PHASE_DATASET]["calls"] == 1
    assert totals[profile.PHASE_TIMING]["calls"] == 1


def test_reentrant_same_phase_keeps_one_bucket():
    profile.reset()
    with profile.phase(profile.PHASE_ALLOCATION):
        with profile.phase(profile.PHASE_ALLOCATION):
            time.sleep(0.01)
    totals = profile.since({})
    assert totals[profile.PHASE_ALLOCATION]["calls"] == 2
    assert totals[profile.PHASE_ALLOCATION]["seconds"] >= 0.008


def test_decorator_form():
    profile.reset()

    @profile.phase(profile.PHASE_FUNCTIONAL)
    def work():
        time.sleep(0.01)
        return 42

    assert work() == 42
    assert work.__name__ == "work"
    totals = profile.since({})
    assert totals[profile.PHASE_FUNCTIONAL]["calls"] == 1


def test_exception_still_closes_phase():
    profile.reset()
    try:
        with profile.phase(profile.PHASE_MAPPING):
            raise ValueError("boom")
    except ValueError:
        pass
    totals = profile.since({})
    assert totals[profile.PHASE_MAPPING]["calls"] == 1
    # The frame stack is clean: a fresh phase nests at top level again.
    with profile.phase(profile.PHASE_TIMING):
        pass
    assert profile.since({})[profile.PHASE_TIMING]["calls"] == 1


def test_snapshot_since_returns_delta_only():
    profile.reset()
    with profile.phase(profile.PHASE_TRAINING_BATCHED):
        time.sleep(0.01)
    before = profile.snapshot()
    with profile.phase(profile.PHASE_PREDICTOR):
        time.sleep(0.01)
    spent = profile.since(before)
    assert profile.PHASE_PREDICTOR in spent
    assert profile.PHASE_TRAINING_BATCHED not in spent  # no new time accrued
    assert spent[profile.PHASE_PREDICTOR]["calls"] == 1


def test_threads_attribute_independently():
    profile.reset()

    def worker():
        with profile.phase(profile.PHASE_TIMING):
            time.sleep(0.02)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    totals = profile.since({})
    assert totals[profile.PHASE_TIMING]["calls"] == 4
    assert totals[profile.PHASE_TIMING]["seconds"] >= 4 * 0.015


def test_merge_accumulates():
    into = {"a": {"seconds": 1.0, "calls": 2}}
    profile.merge(into, {"a": {"seconds": 0.5, "calls": 1},
                         "b": {"seconds": 2.0, "calls": 3}})
    assert into["a"] == {"seconds": 1.5, "calls": 3}
    assert into["b"] == {"seconds": 2.0, "calls": 3}


def test_phase_report_shares_and_coverage(tmp_path):
    per_experiment = {
        "exp1": {"wall_s": 6.0, "phases": {
            "gcn_training": {"seconds": 4.0, "calls": 2},
        }},
        "exp2": {"wall_s": 4.0, "phases": {
            "gcn_training": {"seconds": 1.0, "calls": 1},
            "predictor_fit": {"seconds": 4.0, "calls": 1},
        }},
    }
    path = tmp_path / "phases.json"
    report = profile.write_phase_report(
        str(path), 10.0, per_experiment=per_experiment, quick=True,
    )
    assert report["wall_s"] == 10.0
    assert report["attributed_s"] == 9.0
    assert report["coverage"] == 0.9
    assert report["quick"] is True
    # Sorted by descending seconds: training (5.0) before predictor (4.0).
    assert list(report["phases"]) == ["gcn_training", "predictor_fit"]
    assert report["phases"]["gcn_training"]["share_of_wall"] == 0.5
    assert path.exists()

    import json

    on_disk = json.loads(path.read_text())
    assert on_disk["coverage"] == 0.9
    assert on_disk["per_experiment"]["exp1"]["wall_s"] == 6.0


def test_overhead_stays_small():
    profile.reset()
    timer = profile.phase(profile.PHASE_TIMING)
    start = time.perf_counter()
    for _ in range(2000):
        with timer:
            pass
    elapsed = time.perf_counter() - start
    # ~couple of microseconds per enter/exit pair; generous CI bound.
    assert elapsed < 0.5


def test_instrumented_hot_paths_accrue_phases():
    profile.reset()
    from repro.allocation.greedy import greedy_allocation
    from repro.allocation.problem import AllocationProblem

    problem = AllocationProblem(
        stage_names=["A", "B"],
        times_ns=np.array([100.0, 200.0]),
        crossbars_per_replica=np.array([1, 1]),
        budget=4,
        replica_caps=np.array([4, 4]),
        num_microbatches=4,
    )
    greedy_allocation(problem)
    totals = profile.since({})
    assert totals[profile.PHASE_ALLOCATION]["calls"] == 1
