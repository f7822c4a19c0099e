"""run_all: id validation, deterministic seeding, process-pool fan-out."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult, combine_markdown
from repro.experiments.registry import run_all, validate_experiment_ids

SMALL_IDS = ["fig04", "fig05"]


def test_validate_rejects_all_unknown_ids_at_once():
    with pytest.raises(ExperimentError) as excinfo:
        validate_experiment_ids(["fig05", "nope", "also-nope"])
    message = str(excinfo.value)
    assert "nope" in message and "also-nope" in message
    assert "fig05" in message  # the available-ids listing


def test_run_all_validates_before_running():
    with pytest.raises(ExperimentError):
        run_all(only=["fig05", "unknown-id"])


def test_run_all_rejects_bad_jobs():
    with pytest.raises(ExperimentError):
        run_all(only=SMALL_IDS, jobs=0)


def test_parallel_matches_serial_byte_for_byte():
    serial = run_all(only=SMALL_IDS, quick=True, jobs=1)
    parallel = run_all(only=SMALL_IDS, quick=True, jobs=2)
    assert [r.experiment_id for r in parallel] == [
        r.experiment_id for r in serial
    ]
    assert combine_markdown(parallel) == combine_markdown(serial)


def test_results_returned_in_registry_order():
    results = run_all(only=["fig05", "fig04"], quick=True, jobs=2)
    # `only` order is preserved, not re-sorted.
    assert [r.experiment_id for r in results] == ["fig05", "fig04"]
    assert all(isinstance(r, ExperimentResult) for r in results)


class TestColumnAccessor:
    def test_missing_cells_become_none(self):
        result = ExperimentResult(
            experiment_id="x", title="t",
            rows=[{"a": 1, "b": 2}, {"a": 3}],
        )
        assert result.column("b") == [2, None]

    def test_unknown_column_lists_available(self):
        result = ExperimentResult(
            experiment_id="x", title="t", rows=[{"a": 1, "b": 2}],
        )
        with pytest.raises(ExperimentError) as excinfo:
            result.column("c")
        assert "available: a, b" in str(excinfo.value)


class TestSweepScheduling:
    """LPT ordering, wall-time persistence, and the scheduled pool."""

    def test_lpt_orders_known_longest_first(self, monkeypatch, tmp_path):
        from repro.experiments import sweep

        path = tmp_path / "wall_times.json"
        monkeypatch.setenv(sweep.ENV_SWEEP_TIMES, str(path))
        monkeypatch.setattr(sweep, "_session_times", {})
        sweep.record_wall_times({
            "quick:a": 1.0, "quick:b": 9.0, "quick:c": 4.0,
        })
        order = sweep.lpt_order(["a", "b", "c"], quick=True)
        assert order == [1, 2, 0]  # b (9s), c (4s), a (1s)

    def test_unknown_experiments_schedule_first(self, monkeypatch, tmp_path):
        from repro.experiments import sweep

        monkeypatch.setenv(
            sweep.ENV_SWEEP_TIMES, str(tmp_path / "wall_times.json"),
        )
        monkeypatch.setattr(sweep, "_session_times", {})
        sweep.record_wall_times({"quick:a": 1.0, "quick:c": 4.0})
        order = sweep.lpt_order(["a", "mystery", "c"], quick=True)
        # The unknown job could be the long pole: it must start first.
        assert order == [1, 2, 0]

    def test_wall_times_persist_and_merge(self, monkeypatch, tmp_path):
        from repro.experiments import sweep

        path = tmp_path / "wall_times.json"
        monkeypatch.setenv(sweep.ENV_SWEEP_TIMES, str(path))
        monkeypatch.setattr(sweep, "_session_times", {})
        sweep.record_wall_times({"quick:a": 1.0})
        sweep.record_wall_times({"full:a": 7.0})
        monkeypatch.setattr(sweep, "_session_times", {})  # fresh process
        times = sweep.load_wall_times()
        # Only measured times are known: declared costs live on the specs.
        assert times == {"quick:a": 1.0, "full:a": 7.0}

    @pytest.mark.parametrize("backend", ["analytic", "trace"])
    def test_fresh_process_orders_by_declared_cost(
        self, monkeypatch, tmp_path, backend,
    ):
        # No session times and no times file: every experiment is
        # unmeasured, so the submission order is the declared cost_hint
        # order, longest first (ties keep the registry order).
        from repro.experiments import sweep
        from repro.experiments.registry import specs

        monkeypatch.delenv(sweep.ENV_DISK_CACHE, raising=False)
        monkeypatch.setenv(
            sweep.ENV_SWEEP_TIMES, str(tmp_path / "absent.json"),
        )
        monkeypatch.setattr(sweep, "_session_times", {})
        ids = list(specs())
        hints = {eid: specs()[eid].cost_hint for eid in ids}
        order = sweep.lpt_order(
            ids, quick=True, cost_hints=hints, backend=backend,
        )
        assert [ids[i] for i in order] == sorted(
            ids, key=lambda eid: -hints[eid],
        )
        assert not (tmp_path / "absent.json").exists()

    def test_quick_and_full_times_are_distinct_keys(self):
        from repro.experiments import sweep

        assert (
            sweep.wall_time_key("fig04", True)
            != sweep.wall_time_key("fig04", False)
        )

    def test_run_all_records_serial_durations(self, monkeypatch, tmp_path):
        from repro.experiments import sweep

        monkeypatch.setenv(
            sweep.ENV_SWEEP_TIMES, str(tmp_path / "wall_times.json"),
        )
        monkeypatch.setattr(sweep, "_session_times", {})
        run_all(only=["fig05"], quick=True, jobs=1)
        times = sweep.load_wall_times()
        assert "quick:fig05" in times
        assert times["quick:fig05"] >= 0.0

    @pytest.mark.parametrize(
        "payload", ["[]", "null", '"x"', '{"quick:fig05": 1.'],
        ids=["list", "null", "string", "truncated"],
    )
    def test_unusable_wall_times_file_is_ignored_and_overwritten(
        self, monkeypatch, tmp_path, payload,
    ):
        import json

        from repro.experiments import sweep

        path = tmp_path / "wall_times.json"
        path.write_text(payload)
        monkeypatch.setenv(sweep.ENV_SWEEP_TIMES, str(path))
        monkeypatch.setattr(sweep, "_session_times", {})
        assert sweep.load_wall_times() == {}
        assert sweep.lpt_order(["fig04", "fig05"], quick=True) == [0, 1]
        [result] = run_all(only=["fig05"], quick=True, jobs=1)
        assert result.experiment_id == "fig05"
        assert "quick:fig05" in json.loads(path.read_text())

    def test_scheduled_pool_returns_request_order(self, monkeypatch, tmp_path):
        from repro.experiments import sweep

        monkeypatch.setenv(
            sweep.ENV_SWEEP_TIMES, str(tmp_path / "wall_times.json"),
        )
        # Bias recorded times so LPT submits fig04 before fig05 even
        # though fig05 is requested first: results must still come back
        # in request order.
        monkeypatch.setattr(
            sweep, "_session_times",
            {"quick:fig04": 9.0, "quick:fig05": 0.1},
        )
        results = run_all(only=["fig05", "fig04"], quick=True, jobs=2)
        assert [r.experiment_id for r in results] == ["fig05", "fig04"]

    def test_limit_blas_threads_reports_boolean(self):
        from repro.experiments.sweep import limit_blas_threads

        assert limit_blas_threads(1) in (True, False)
