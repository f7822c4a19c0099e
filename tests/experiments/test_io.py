"""Experiment result JSON output."""

import json

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.io import FORMAT_VERSION, results_to_dict, save_results


@pytest.fixture
def results():
    return [
        ExperimentResult(
            experiment_id="fig05",
            title="Example",
            rows=[{"a": 1, "b": 2.5, "c": "x"}, {"a": 2, "b": None}],
            notes="Paper notes.",
        ),
        ExperimentResult(experiment_id="tab05", title="Other"),
    ]


def test_round_trip_via_file(results, tmp_path):
    path = tmp_path / "results.json"
    save_results(results, path)
    payload = json.loads(path.read_text())
    assert payload == results_to_dict(results)
    assert payload["format_version"] == FORMAT_VERSION
    loaded = payload["results"]
    assert [entry["experiment_id"] for entry in loaded] == ["fig05", "tab05"]
    assert loaded[0]["rows"] == results[0].rows
    assert loaded[0]["notes"] == "Paper notes."
    assert loaded[1]["rows"] == []
    # Types preserved through JSON.
    assert isinstance(loaded[0]["rows"][0]["a"], int)
    assert isinstance(loaded[0]["rows"][0]["b"], float)


def test_markdown_identical_after_round_trip(results, tmp_path):
    # The file holds everything a result renders from.
    path = tmp_path / "results.json"
    save_results(results, path)
    entries = json.loads(path.read_text())["results"]
    for entry, result in zip(entries, results):
        assert ExperimentResult(**entry).to_markdown() == result.to_markdown()
