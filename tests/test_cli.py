"""CLI smoke tests (capture stdout, check structure)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]


def _expected_digests():
    return json.loads(
        (REPO / "benchmarks/e2e/expected_digests.json").read_text(),
    )


def _rows_digest(rows):
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode(),
    ).hexdigest()


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("ddi", "collab", "ppa", "proteins", "arxiv", "products",
                 "cora"):
        assert name in out
    assert "80%" in out  # cora's sparse theta


def test_area_command(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "pe_mm2" in out and "tile_mm2" in out


def test_simulate_command(capsys):
    assert main(["simulate", "cora", "--micro-batch", "64"]) == 0
    out = capsys.readouterr().out
    assert "Serial" in out and "GoPIM" in out
    assert "speedup" in out


def test_gantt_command(capsys):
    assert main(["gantt", "cora", "--width", "40", "--serial"]) == 0
    out = capsys.readouterr().out
    assert "CO1" in out and "GC1" in out
    assert "bottleneck:" in out


def test_experiments_command(capsys):
    assert main(["experiments", "fig05"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out
    assert "| allocation |" in out


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    # Registry columns and both old and new experiment families.
    assert "id" in out and "cost" in out and "datasets" in out
    assert "fig13" in out
    for srv_id in ("srv_tail_latency", "srv_batching_policy",
                   "srv_saturation"):
        assert srv_id in out
    assert "Serving tail latency vs offered load" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_stats_command(capsys):
    assert main(["stats", "cora"]) == 0
    out = capsys.readouterr().out
    assert "average_degree" in out and "homophily" in out


def test_lifetime_command(capsys):
    assert main(["lifetime", "cora"]) == 0
    out = capsys.readouterr().out
    assert "ISU+leveling" in out
    assert "worst-row epochs" in out


def test_run_on_the_trace_backend_prices_on_trace(capsys):
    argv = ["run", "abl-crossbar-size", "--quick", "--backend", "trace",
            "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    provenance = payload["provenance"]
    assert provenance["backend"] == "trace"
    assert provenance["run_spec"]["backend"] == "trace"
    # The recorded trace digest differs from the analytic one, so a
    # match shows the rows were priced on trace, not only stamped.
    digests = _expected_digests()
    rows = _rows_digest(payload["rows"])
    assert rows == digests["trace"]["abl-crossbar-size"]
    assert rows != digests["analytic"]["abl-crossbar-size"]


def test_bke_cross_validation_orderings_agree(capsys):
    assert main(["run", "bke_cross_validation", "--quick", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows, "bke_cross_validation produced no rows"
    assert all(row["ordering agrees"] for row in rows), (
        "analytic and trace disagree on a speedup ordering"
    )
    serial = [row for row in rows if row["system"] == "Serial"]
    assert serial and all(row["delta"] == 0.0 for row in serial), (
        "Serial rows must be byte-identical across backends"
    )
    expected = _expected_digests()["analytic"]["bke_cross_validation"]
    assert _rows_digest(rows) == expected


def test_run_json_carries_provenance(capsys):
    from repro.runtime import collect_specs

    # fig13 declares no quick overrides, so its plain run is the
    # recorded quick-tier run.
    assert main(["run", "fig13", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    provenance = payload["provenance"]
    assert provenance.get("spec_hash"), "provenance missing spec_hash"
    assert provenance["experiment_id"] == "fig13"
    assert provenance["run_spec"]["seed"] == 0
    assert provenance.get("config_fingerprint")
    assert payload["rows"], "fig13 produced no rows"
    assert payload["registry"] == list(collect_specs()), (
        "CLI registry ids diverge from the collected ExperimentSpecs"
    )
    expected = _expected_digests()["analytic"]["fig13"]
    assert _rows_digest(payload["rows"]) == expected


def test_run_allocator_sweep_quick(capsys):
    assert main(["run", "abl-scheduler", "--quick", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"], "abl-scheduler produced no rows"
    assert payload["provenance"].get("spec_hash"), (
        "abl-scheduler payload missing provenance"
    )
    expected = _expected_digests()["analytic"]["abl-scheduler"]
    assert _rows_digest(payload["rows"]) == expected


def test_run_serving_quick(capsys):
    assert main(["run", "srv_tail_latency", "--quick", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["rows"]
    assert rows, "srv_tail_latency produced no rows"
    total = sum(row["requests"] for row in rows)
    assert total >= 1_000_000, (
        f"quick serving run simulated only {total} requests"
    )
    for row in rows:
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
    assert payload["provenance"].get("spec_hash"), (
        "serving payload missing provenance"
    )
    expected = _expected_digests()["analytic"]["srv_tail_latency"]["0"]
    assert _rows_digest(rows) == expected
