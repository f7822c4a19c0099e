"""Artifacts round-trip through the disk tier.

A trace session fills a disk tier; a second session on a fresh cache
over the same directory must read every artifact back, unpickle each
one (a stale or broken pickle reads as a counted corrupt entry, not as
a failure) and produce equal rows.  State that a workload, stage or
predictor keeps in memory and that does not survive pickling shows up
here as a miss, a corrupt entry or a changed row.
"""

from __future__ import annotations

from repro.experiments.registry import run_all
from repro.perf.cache import ArtifactCache
from repro.runtime import RunSpec, Session

IDS = ("fig13", "tab06")


def run(disk_dir):
    cache = ArtifactCache(disk_dir=str(disk_dir))
    session = Session(RunSpec(backend="trace"), cache=cache)
    rows = [result.rows for result in run_all(
        only=list(IDS), quick=True, session=session,
    )]
    return rows, cache.stats


def test_a_second_session_reads_every_artifact_back(tmp_path):
    first, filled = run(tmp_path)
    assert filled.misses > 0 and filled.corrupt == {}
    second, read = run(tmp_path)
    assert second == first
    assert read.misses == 0
    assert read.corrupt == {}
    assert read.disk_hits > 0
