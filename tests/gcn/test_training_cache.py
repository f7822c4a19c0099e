"""The ``"training"`` memo: each replica trains once per cache.

``train_replicas`` keeps every replica's :class:`TrainingResult` in the
session's cache, keyed by :meth:`ReplicaSpec.content_key`.  A hit must
stand in for the engine exactly: equal to the all-cold result whatever
fleet the replica trained in, returned as a copy no caller can edit
through, and drawn from no RNG stream.  The key must name content: any
input that changes what a run computes changes it, and an equal graph
built apart does not.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.gcn import batched
from repro.gcn.batched import TRAINING_NAMESPACE, ReplicaSpec, train_replicas
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan
from repro.perf.cache import ArtifactCache
from repro.runtime import Session

pytestmark = pytest.mark.usefixtures("fresh_cache")


def _graph(seed=0):
    return dc_sbm_graph(
        200, 3, 8.0, random_state=seed, feature_dim=10, intra_ratio=0.9,
    )


@pytest.fixture(scope="module")
def graph():
    return _graph()


def _counts(session):
    stats = session.cache.stats
    return (
        stats.namespace_hits.get(TRAINING_NAMESPACE, 0),
        stats.namespace_misses.get(TRAINING_NAMESPACE, 0),
    )


def _tab05(graph, task):
    # Vanilla + ISU: one seed, the plan varied.
    plan = build_update_plan(graph, "isu", theta=0.5, minor_period=3)
    return [
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=0, update_plan=p,
        )
        for p in (None, plan)
    ]


def _fig16(graph, task):
    # The full-update baseline + one ISU replica per theta.
    plans = [
        build_update_plan(graph, "isu", theta=theta, minor_period=3)
        for theta in (0.3, 0.6, 0.9)
    ]
    return [
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=0, update_plan=p,
        )
        for p in [None] + plans
    ]


def _forbid_engines(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cached replica built a training engine")

    monkeypatch.setattr(batched, "BatchedNodeTrainer", refuse)
    monkeypatch.setattr(batched, "BatchedLinkTrainer", refuse)


def test_a_second_call_trains_nothing(graph, fresh_cache, monkeypatch):
    specs = _tab05(graph, "node") + _fig16(graph, "link") + [
        ReplicaSpec(
            graph=graph, task="node", epochs=3, random_state=2,
            analog_noise_sigma=0.05,
        ),
    ]
    first = train_replicas(specs)
    assert _counts(fresh_cache) == (0, len(specs))
    _forbid_engines(monkeypatch)
    second = train_replicas(specs)
    assert _counts(fresh_cache) == (len(specs), len(specs))
    assert second == first


@pytest.mark.parametrize("task", ["node", "link"])
@pytest.mark.parametrize("shape", [_tab05, _fig16], ids=["tab05", "fig16"])
def test_a_partly_cached_fleet_returns_the_all_cold_results(
    graph, task, shape,
):
    specs = shape(graph, task)
    with Session(cache=ArtifactCache()).use():
        cold = train_replicas(specs)
    for cached in range(len(specs)):
        with Session(cache=ArtifactCache()).use() as session:
            train_replicas([specs[cached]])  # its own fleet of one
            mixed = train_replicas(specs)
            assert _counts(session) == (1, len(specs))
        for run, expected in zip(mixed, cold):
            assert run.losses == expected.losses
            assert run.train_metrics == expected.train_metrics
            assert run.test_metrics == expected.test_metrics


def test_equal_specs_in_one_call_each_train(graph, fresh_cache):
    spec = _tab05(graph, "node")[0]
    first, second = train_replicas([spec, spec])
    assert _counts(fresh_cache) == (0, 2)
    assert first == second and first is not second


def test_editing_a_result_leaves_the_cache_unchanged(graph):
    spec = _tab05(graph, "link")[1]
    trained = train_replicas([spec])[0]
    pristine = trained.copy()
    for run in (trained, train_replicas([spec])[0]):
        run.losses.append(1.0)
        run.train_metrics[0] = -1.0
        run.test_metrics.clear()
        assert train_replicas([spec])[0] == pristine


def test_a_hit_draws_from_no_rng_stream(graph, monkeypatch):
    specs = _tab05(graph, "link")
    train_replicas(specs)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a cached replica drew from a session stream")

    monkeypatch.setattr(Session, "rng", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    before = np.random.get_state()[1].copy()
    train_replicas(specs)
    assert (np.random.get_state()[1] == before).all()


def test_the_key_names_content(graph):
    def spec(**changes):
        fields = {"graph": graph, "task": "node", "epochs": 4, "random_state": 0}
        fields.update(changes)
        return ReplicaSpec(**fields)

    restructured = _graph(seed=1).with_features(graph.features)
    variants = [
        spec(),
        spec(graph=graph.with_features(graph.features + 1.0)),
        spec(graph=graph.with_labels(graph.labels[::-1].copy())),
        spec(graph=restructured.with_labels(graph.labels)),
        spec(task="link"),
        spec(epochs=5),
        spec(random_state=1),
        spec(update_plan=build_update_plan(graph, "isu", theta=0.5)),
        spec(update_plan=build_update_plan(graph, "isu", theta=0.8)),
        spec(update_plan=build_update_plan(
            graph, "isu", theta=0.5, minor_period=7,
        )),
        spec(analog_noise_sigma=0.05),
    ]
    keys = [variant.content_key() for variant in variants]
    assert len(set(keys)) == len(keys)
    for twin in (_graph(), pickle.loads(pickle.dumps(graph))):
        assert twin is not graph
        assert spec(graph=twin).content_key() == keys[0]
