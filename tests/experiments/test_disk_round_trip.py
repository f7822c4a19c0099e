"""Artifacts round-trip through the disk tier.

A session fills a disk tier; a second session on a fresh cache over the
same directory must read every artifact back, unpickle each one (a
stale or broken pickle reads as a counted corrupt entry, not as a
failure) and produce equal rows.  State that a workload, stage,
predictor or training result keeps in memory and that does not survive
pickling shows up here as a miss, a corrupt entry or a changed row.
fig13 and tab06 run on the trace backend; abl-variation, whose
``"training"`` entries are the point, declares no trace backend and
runs on the analytic one.
"""

from __future__ import annotations

from repro.experiments.registry import run_all
from repro.gcn.batched import TRAINING_NAMESPACE
from repro.perf.cache import ArtifactCache
from repro.runtime import RunSpec, Session


def run(disk_dir, ids, backend):
    cache = ArtifactCache(disk_dir=str(disk_dir))
    session = Session(RunSpec(backend=backend), cache=cache)
    rows = [result.rows for result in run_all(
        only=list(ids), quick=True, session=session,
    )]
    return rows, cache.stats


def assert_read_back(tmp_path, ids, backend):
    first, filled = run(tmp_path, ids, backend)
    assert filled.misses > 0 and filled.corrupt == {}
    second, read = run(tmp_path, ids, backend)
    assert second == first
    assert read.misses == 0
    assert read.corrupt == {}
    assert read.disk_hits > 0
    return read


def test_a_second_session_reads_every_artifact_back(tmp_path):
    assert_read_back(tmp_path, ("fig13", "tab06"), "trace")


def test_a_second_session_reads_training_results_back(tmp_path):
    read = assert_read_back(tmp_path, ("abl-variation",), "analytic")
    assert read.namespace_hits[TRAINING_NAMESPACE] == 2  # one per sigma
