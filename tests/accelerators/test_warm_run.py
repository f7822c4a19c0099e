"""A warm accelerator run rebuilds nothing its inputs fix.

A (workload, chip, design point) fixes the stage chain, SlimGNN-like's
pruned workload, the calibration constants' key encodings, the
predictor's feature rows and the session's predictor key.  Each is
built once and read by every later run: the workload keeps its chain
and memos, the catalog shares its ``TimingParams``, the session keeps
its predictor keys.  None of those memos may point back at the
workload that holds it, so a dropped workload is freed at once.
"""

from __future__ import annotations

import gc
import pickle
import runpy
import weakref
from pathlib import Path

import pytest

from repro.accelerators.catalog import gopim, reflip, slimgnn_like
from repro.experiments.registry import run_all
from repro.graphs.generators import dc_sbm_graph
from repro.perf import cache as cache_module
from repro.perf.cache import ArtifactCache
from repro.predictor import dataset as dataset_module
from repro.predictor import features as features_module
from repro.predictor.predictor import TimePredictor, _feature_rows
from repro.runtime import RunSpec, Session
from repro.stages import workload as workload_module
from repro.stages.workload import Workload
from tests.oracles.cache_key import cache_key_reference

BACKENDS = ("analytic", "trace")

#: The functions that rebuild what a warm run's inputs fix.
REBUILDERS = (
    (workload_module, "build_stage_chain"),
    (cache_module, "_encode_fields"),
    (features_module, "stage_features"),
    (dataset_module, "samples_config_key"),
)


def _trace_ids():
    """The accel-trace benchmark workload's experiments."""
    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "e2e" / "e2e_workloads.py"
    )
    return runpy.run_path(str(path), run_name="e2e_workloads")["TRACE_IDS"]


def design_points(predictor):
    return (gopim(time_predictor=predictor), reflip(), slimgnn_like())


def count_calls(monkeypatch):
    """Count every call to the :data:`REBUILDERS` from here on."""
    calls = {name: 0 for _, name in REBUILDERS}
    for module, name in REBUILDERS:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def outputs(report):
    return (
        report.total_time_ns, repr(report.energy),
        report.replicas.tolist(), report.stage_names,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_warm_run_builds_nothing_its_inputs_fix(backend, monkeypatch):
    session = Session(RunSpec(backend=backend))
    with session.use():
        workload = session.workload("cora")
        cold = [
            outputs(acc.run(workload))
            for acc in design_points(session.predictor())
        ]
        calls = count_calls(monkeypatch)
        warm = [
            outputs(acc.run(workload))
            for acc in design_points(session.predictor())
        ]
    assert calls == {name: 0 for _, name in REBUILDERS}
    assert warm == cold


def test_the_session_keys_its_predictor_once(monkeypatch):
    session = Session(RunSpec())
    first = session.predictor()
    calls = count_calls(monkeypatch)
    assert session.predictor() is first
    assert session.predictor(num_samples=800, seed=0) is first
    assert calls["samples_config_key"] == calls["_encode_fields"] == 0
    # Another (samples, seed) is another key, built once.
    other = Session(RunSpec())
    other.predictor(num_samples=800, seed=0)
    assert calls["samples_config_key"] == 1


def test_the_timing_fingerprint_is_the_reference_key_of_its_parts():
    session = Session(RunSpec())
    with session.use():
        workload = session.workload("cora")
        for acc in design_points(None):
            timing = acc.build_timing_model(workload)
            priced = timing.workload
            assert timing.content_fingerprint() == cache_key_reference(
                priced.graph, tuple(priced.layer_dims), priced.micro_batch,
                timing.config, timing.params, timing.update_plan,
            )


def test_a_memo_hit_predicts_what_a_fresh_predictor_does(monkeypatch):
    """Every (predictor, workload) the accel-trace experiments price: the
    memoised times equal a fresh predictor's on an unpickled workload
    (no memoised rows), float for float."""
    seen = {}
    predict = TimePredictor.predict_stage_times

    def recorded(self, workload):
        seen.setdefault((id(self), id(workload)), (self, workload))
        return predict(self, workload)

    with monkeypatch.context() as patch:
        patch.setattr(TimePredictor, "predict_stage_times", recorded)
        run_all(
            only=list(_trace_ids()), quick=True,
            session=Session(RunSpec(backend="trace")),
        )
    assert len(seen) > 10
    for predictor, workload in seen.values():
        fresh = pickle.loads(pickle.dumps(predictor))
        expected = fresh.predict_stage_times(
            pickle.loads(pickle.dumps(workload)),
        )
        with monkeypatch.context() as patch:
            patch.setattr(
                type(predictor.model), "predict",
                lambda self, features: pytest.fail("a hit predicts nothing"),
            )
            assert predictor.predict_stage_times(workload) == expected


def test_a_dropped_workload_and_its_memos_are_freed():
    # Reference counting alone must free them: a memo that pointed back
    # at its workload would keep it alive until a full collection.
    predictor = Session().predictor()
    session = Session(RunSpec(backend="trace"), cache=ArtifactCache(""))
    graph = dc_sbm_graph(
        num_vertices=300, num_communities=3, avg_degree=6.0,
        random_state=11,
    )
    workload = Workload(graph, [(16, 32), (32, 8)], micro_batch=32)
    with session.use():
        for acc in design_points(predictor):
            acc.run(workload)
        pruned = slimgnn_like().build_timing_model(workload).workload
    assert pruned is not workload
    _, rows = _feature_rows(workload)
    alive = [weakref.ref(obj) for obj in (workload, pruned, rows, graph)]
    gc.disable()
    try:
        del workload, pruned, rows, graph
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
