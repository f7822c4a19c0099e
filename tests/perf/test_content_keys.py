"""Content keys over a real sweep: memo-free digests, no stale artifacts.

One module-scoped sweep runs accelerator experiments on both backends
against an isolated artifact cache with a disk tier.  While it runs,
every ``cache_key`` call is replayed through the memo-free encoder in
``tests/oracles/cache_key.py``.  The sweep's disk tier then seeds a
second run that must ignore artifacts written in the previous layout of
the ``timing-tables`` and ``trace_programs`` namespaces.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pickle
import pkgutil
import shutil
import sys
from pathlib import Path

import pytest
from numpy.lib.recfunctions import drop_fields

import repro
from repro.accelerators.base import AcceleratorModel
from repro.backends import trace
from repro.perf import cache as cache_module
from repro.perf.cache import ArtifactCache, cache_key
from repro.runtime import RunSpec, Session
from tests.oracles.cache_key import cache_key_reference

REPO = Path(__file__).resolve().parents[2]
SWEEP_IDS = ("fig13", "fig14", "abl-crossbar-size", "tab07")
BACKENDS = ("analytic", "trace")


def run(experiment_ids, backend):
    from repro.experiments.registry import run_all

    session = Session(RunSpec(backend=backend))
    return run_all(only=list(experiment_ids), quick=True, session=session)


#: The revision parts both namespaces' keys carried in the previous
#: layout: per-stage activity totals in the tables, one program entry
#: per stage.
PREVIOUS_TABLES_REVISION = "stage-activity-v1"
PREVIOUS_PROGRAM_REVISION = "records-and-op-totals-v1"


def parent_parts(timing):
    """The key parts both namespaces hashed before their revisions."""
    workload = timing.workload
    plan = timing.update_plan
    return (
        workload.graph, tuple(workload.layer_dims), workload.micro_batch,
        timing.config, timing.params, plan.mapping.crossbar_of,
        plan.important, float(plan.theta), plan.minor_period,
    )


def cached_artifacts(timings):
    """Pickled bytes of every timing model's cached tables and programs."""
    return [
        pickle.dumps((
            AcceleratorModel._timing_tables(timing),
            trace._program_entry(timing),
        ))
        for timing in timings
    ]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Run the sweep once; report its key checks and timing models."""
    # Import every module first, so each ``cache_key`` binding exists.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    disk = tmp_path_factory.mktemp("artifacts")
    checks = []
    timings = {}

    def checked_key(*parts):
        digest = cache_key(*parts)
        checks.append(digest == cache_key_reference(*parts))
        return digest

    build = AcceleratorModel.build_timing_model

    def recorded_build(self, *args, **kwargs):
        timing = build(self, *args, **kwargs)
        timings.setdefault(cache_key(*parent_parts(timing)), timing)
        return timing

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "_default_cache", ArtifactCache(str(disk)))
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, "cache_key", None) is cache_key
            ):
                patch.setattr(module, "cache_key", checked_key)
        patch.setattr(AcceleratorModel, "build_timing_model", recorded_build)
        for backend in BACKENDS:
            run(SWEEP_IDS, backend)
        # Warm re-runs read the cached tables and programs; none may
        # change what it reads.
        before = cached_artifacts(timings.values())
        for backend in BACKENDS:
            run(SWEEP_IDS, backend)
        unchanged = cached_artifacts(timings.values()) == before
    return {
        "checks": checks, "timings": timings, "disk": disk,
        "unchanged": unchanged,
    }


def test_every_sweep_key_matches_the_unmemoised_encoder(sweep):
    assert len(sweep["checks"]) > 500
    assert all(sweep["checks"])


def test_readers_never_mutate_cached_artifacts(sweep):
    assert sweep["timings"]
    assert sweep["unchanged"]


def test_parent_format_entries_are_never_read(sweep, monkeypatch):
    disk = sweep["disk"]
    # Replace both namespaces' entries with what the previous layout
    # wrote under the previous keys: tables with per-stage activity
    # totals and no energy constants, one program entry per stage whose
    # records have no stage column.
    monkeypatch.setattr(cache_module, "_default_cache", ArtifactCache(""))
    planted = {}
    for timing in sweep["timings"].values():
        fingerprint = timing.content_fingerprint()
        tables = dict(AcceleratorModel._timing_tables(timing))
        del tables["energy"]
        tables["activity"] = tuple(
            timing.stage_activity_totals(stage) for stage in timing.stages
        )
        key = f"{PREVIOUS_TABLES_REVISION}:{fingerprint}"
        planted["timing-tables", key] = tables
        for index in range(len(timing.stages)):
            records = drop_fields(
                trace.compile_stage_program(timing, index), "stage",
                usemask=False,
            )
            planted[
                trace.CACHE_NAMESPACE,
                f"{PREVIOUS_PROGRAM_REVISION}:{fingerprint}:s{index}",
            ] = (records, trace.program_stats(records))
    for namespace in ("timing-tables", trace.CACHE_NAMESPACE):
        shutil.rmtree(disk / namespace)
        (disk / namespace).mkdir()
    for (namespace, key), value in planted.items():
        (disk / namespace / f"{key}.pkl").write_bytes(pickle.dumps(value))

    reader = ArtifactCache(str(disk))
    monkeypatch.setattr(cache_module, "_default_cache", reader)
    golden = json.loads(
        (REPO / "tests/experiments/golden_quick_hashes.json").read_text(),
    )
    expected = {
        "analytic": golden["fig13"],
        "trace": json.loads(
            (REPO / "benchmarks/e2e/expected_digests.json").read_text(),
        )["trace"]["fig13"],
    }
    for backend in BACKENDS:
        rows = run(["fig13"], backend)[0].rows
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True, default=str).encode(),
        ).hexdigest()
        assert digest == expected[backend], backend
    assert reader.stats.disk_hits > 0  # the disk tier was consulted
    assert not any(reader.contains(ns, key) for ns, key in planted)
