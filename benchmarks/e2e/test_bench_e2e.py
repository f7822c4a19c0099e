"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1
collects ``tests/`` only).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import e2e_workloads  # noqa: E402
from e2e_tracer import Tracer  # noqa: E402
from e2e_workloads import Checker, Op, load_digests, rows_digest  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {spec["name"] for spec in BENCH["end_to_end"]}
PER_LAYER = {spec["name"] for spec in BENCH["per_layer"]}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "bench_e2e.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_run_reports_every_metric(tmp_path):
    out = tmp_path / "report.json"
    proc = bench("--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for workload, data in report["workloads"].items():
        (run,) = data["runs"]
        assert run["failures"] == [], workload
        assert set(run["metrics"]) == END_TO_END | PER_LAYER, workload
    # Several workloads in one invocation: the last line keys each
    # metric by workload.
    assert {key.split("/", 1)[1] for key in line["metrics"]} == PER_LAYER


def test_untraced_run_prints_end_to_end_metrics():
    proc = bench("--smoke", "--workload", "serving-scale", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = bench("--workload", "serving-scale", "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_committed_digests_agree_with_golden_hashes():
    golden = json.loads(
        (ROOT / "tests" / "experiments" / "golden_quick_hashes.json").read_text()
    )
    analytic = load_digests()["analytic"]
    assert {eid: analytic[eid] for eid in golden} == golden


def test_serving_grid_is_srv_tail_latency_full_tier():
    import inspect

    from repro.experiments import srv_tail_latency

    full_tier = inspect.signature(srv_tail_latency.run).parameters
    assert e2e_workloads.SERVING_REQUESTS == full_tier["num_requests"].default
    assert e2e_workloads.SERVING_LOADS == srv_tail_latency.FULL_LOADS


def _bindings():
    """Every attribute of every repro module and of the classes they
    define, by identity."""
    from repro.experiments.registry import specs

    specs()
    import repro.serving  # noqa: F401

    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_restores_every_patched_attribute():
    from repro.graphs.graph import Graph
    from repro.perf import cache

    before = _bindings()
    original_key = cache.cache_key
    tracer = Tracer()
    # Installed twice: a traced child re-installs it for every traced pass.
    for round_ in range(2):
        tracer.install()
        try:
            patched = [key for key, value in _bindings().items()
                       if key in before and value is not before[key]]
            # `from x import f` bindings are caught, not just the definition.
            key_bindings = [key for key in patched
                            if before[key] is original_key]
            assert len(key_bindings) >= 10
            assert ("repro.experiments.abl_allocator", "ALLOCATORS") in patched
            tracer.context = ("pass", round_)
            Graph.from_edges(3, [(0, 1), (1, 2)])
        finally:
            tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] is not before[key]] == []
    assert [span[0] for span in tracer.spans] == ["graphs.from_edges"] * 2


def test_self_time_subtracts_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        traced_inner()
        traced_inner()
        time.sleep(0.01)

    traced_outer = tracer.wrap(outer, "outer")
    tracer.context = ("pass", 0)
    start = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - start

    selfs = tracer.self_times()
    outer_self, outer_calls = selfs[(("pass", 0), "outer")]
    inner_self, inner_calls = selfs[(("pass", 0), "inner")]
    durations = [(end - begin) / 1e9 for _, begin, end, _, _ in tracer.spans]
    assert (outer_calls, inner_calls) == (1, 2)
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert abs(outer_self - (durations[0] - durations[1] - durations[2])) < 1e-9
    assert abs(inner_self - (durations[1] + durations[2])) < 1e-9
    assert 0.009 < outer_self and outer_self + inner_self <= wall
    assert tracer.root_seconds(("pass", 0)) == durations[0]


def test_weighted_median_resists_one_heavy_outlier():
    # Tracing cost per (pair, operation): one long operation hit by host
    # load in one pass must not become the estimate.
    ratios = [(1.01, 2.0), (0.99, 2.0), (1.02, 3.0), (1.6, 4.0), (1.0, 1.0)]
    assert e2e_workloads.weighted_median(ratios) == 1.02
    assert e2e_workloads.weighted_median([(1.3, 0.0)]) == 1.3


def test_perturbed_row_counts_as_failed(monkeypatch):
    from repro.experiments.registry import run_all

    rows = run_all(only=["fig05"], quick=True)[0].rows
    checker = Checker(load_digests()["analytic"], seed=0)
    assert checker.check(Op("fig05", 0.0, rows_digest("fig05", rows))) is None

    digest = e2e_workloads.rows_digest

    def perturbed(experiment_id, rows):
        if experiment_id == "fig05":
            rows = [dict(rows[0], perturbed=True)] + rows[1:]
        return digest(experiment_id, rows)

    monkeypatch.setattr(e2e_workloads, "rows_digest", perturbed)
    result = e2e_workloads.run_child({
        "workload": "sweep-cold", "seed": 0, "smoke": True, "seconds": 0,
        "mode": "run", "passes": 1,
    })
    assert len(result["failures"]) == 1 and "fig05" in result["failures"][0]
    assert len(result["failures"]) / result["attempted"] > 0


def _report(
    path: Path, values, seed: int = 0, metric: str = "wall_per_calib",
) -> str:
    path.write_text(json.dumps({"workloads": {"sweep-warm": {"runs": [
        {"seed": seed, "metrics": {metric: value}} for value in values
    ]}}}))
    return str(path)


def test_compare_labels(tmp_path, capsys):
    base = _report(tmp_path / "a.json", [10.0, 10.1, 9.9, 10.0, 10.05])
    same = _report(tmp_path / "b.json", [10.02, 10.08, 9.95, 10.0, 10.1])
    slow = _report(tmp_path / "c.json", [13.0, 13.1, 12.9, 13.0, 13.2])
    fast = _report(tmp_path / "d.json", [8.0, 8.1, 7.9, 8.0, 8.05])
    noisy = _report(tmp_path / "e.json", [7.0, 13.0, 9.0, 11.0, 10.0])
    assert compare.main([base, "--", same]) == 0
    assert capsys.readouterr().out.rstrip().endswith("ok")
    assert compare.main([base, "--", slow]) == 1
    assert capsys.readouterr().out.rstrip().endswith("worse")
    assert compare.main([base, "--", fast]) == 0
    assert capsys.readouterr().out.rstrip().endswith("improved")
    assert compare.main([base, "--", noisy]) == 0
    assert capsys.readouterr().out.rstrip().endswith("unresolved")

    exact_a = _report(tmp_path / "f.json", [748.0], metric="sim.gopim_speedup_x")
    exact_b = _report(tmp_path / "g.json", [748.5], metric="sim.gopim_speedup_x")
    assert compare.main([exact_a, "--", exact_b]) == 1
    assert capsys.readouterr().out.rstrip().endswith("MISMATCH")
