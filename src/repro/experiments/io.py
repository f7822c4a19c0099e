"""Experiment result serialisation (JSON).

``save_results`` writes a list of
:class:`~repro.experiments.harness.ExperimentResult` to one JSON file
(``generate --json``): a versioned envelope around each result's id,
title, notes, rows and metadata.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from repro.experiments.harness import ExperimentResult

FORMAT_VERSION = 1


def results_to_dict(results: Sequence[ExperimentResult]) -> dict:
    """The JSON-serialisable representation."""
    return {
        "format_version": FORMAT_VERSION,
        "results": [
            {
                "experiment_id": r.experiment_id,
                "title": r.title,
                "notes": r.notes,
                "rows": r.rows,
                "metadata": r.metadata,
            }
            for r in results
        ],
    }


def save_results(
    results: Sequence[ExperimentResult],
    path: Union[str, Path],
) -> None:
    """Write results as JSON."""
    Path(path).write_text(
        json.dumps(results_to_dict(results), indent=2, sort_keys=False),
    )
