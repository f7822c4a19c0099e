"""Replica-batched training vs the serial oracle loops, bit for bit.

``train_replicas`` stacks R compatible runs into one ``[R, ...]`` tensor
pass; its contract is *exact* equality with training each
:class:`~repro.gcn.batched.ReplicaSpec` on the serial trainer loops kept
in ``tests/oracles/trainers.py`` — losses and train/test metric
histories, not approximately but bitwise (``==`` on the float lists).
These tests sweep the dimensions a group may vary in (seed, update
plan) and the one setting it must carry through unchanged (analog
noise), plus groups of one, the co-simulator's one-epoch-per-call
pattern, input validation, ordering, and the split harness
(``train_with_split``, GCN and GraphSAGE fleets) against its serial
oracle in ``tests/oracles/split_harness.py``.  Each test runs in a
fresh-cache session, so every replica trains on the engine instead of
coming from the ``"training"`` memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.experiments.harness import train_with_split
from repro.gcn import batched
from repro.gcn.batched import ReplicaSpec, train_replicas
from repro.gcn.model import GCN
from repro.gcn.sage import GraphSAGE
from repro.gcn.trainer import make_trainer
from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.mapping.selective import build_update_plan
from tests.oracles import split_harness as split_oracle
from tests.oracles.trainers import make_trainer as make_oracle

pytestmark = pytest.mark.usefixtures("fresh_cache")


@pytest.fixture(scope="module")
def graph():
    return dc_sbm_graph(
        240, 3, 10.0, random_state=0, feature_dim=12, intra_ratio=0.9,
    )


@pytest.fixture(scope="module")
def plan(graph):
    return build_update_plan(graph, "isu", theta=0.5, minor_period=5)


def _serial(spec: ReplicaSpec):
    trainer = make_oracle(
        spec.graph, spec.task, random_state=spec.random_state,
        analog_noise_sigma=spec.analog_noise_sigma,
    )
    return trainer.train(epochs=spec.epochs, update_plan=spec.update_plan)


def _assert_same_result(fast, ref):
    assert fast.losses == ref.losses
    assert fast.train_metrics == ref.train_metrics
    assert fast.test_metrics == ref.test_metrics


def _assert_identical(specs):
    for spec, fast in zip(specs, train_replicas(specs)):
        _assert_same_result(fast, _serial(spec))


@pytest.mark.parametrize("task", ["node", "link"])
def test_seed_varied_fleet(graph, task):
    _assert_identical([
        ReplicaSpec(graph=graph, task=task, epochs=5, random_state=s)
        for s in range(4)
    ])


@pytest.mark.parametrize("task", ["node", "link"])
def test_shared_seed_mixed_plans(graph, plan, task):
    # The tab05 shape: one data seed, vanilla vs ISU update plans.
    _assert_identical([
        ReplicaSpec(
            graph=graph, task=task, epochs=5, random_state=0,
            update_plan=p,
        )
        for p in (None, plan, None, plan)
    ])


@pytest.mark.parametrize("task", ["node", "link"])
def test_mixed_seeds_and_plans(graph, plan, task):
    _assert_identical([
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=s,
            update_plan=p,
        )
        for s, p in ((0, None), (1, plan), (2, None), (3, plan))
    ])


@pytest.mark.parametrize("task", ["node", "link"])
def test_analog_noise(graph, task):
    # Per-epoch model randomness must come off the same stream draws.
    _assert_identical([
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=s,
            analog_noise_sigma=0.02,
        )
        for s in range(3)
    ])


def test_singleton_group_matches_oracle(graph, plan):
    # A group of one trains on the engine as a fleet of one.
    _assert_identical([
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=7,
            update_plan=plan,
        )
        for task in ("node", "link")
    ])


def test_incompatible_groups_keep_input_order(graph):
    # Epoch counts differ -> two groups (one a fleet of one); results
    # must still come back in input order.
    specs = [
        ReplicaSpec(graph=graph, task="node", epochs=4, random_state=0),
        ReplicaSpec(graph=graph, task="node", epochs=6, random_state=1),
        ReplicaSpec(graph=graph, task="node", epochs=4, random_state=2),
    ]
    _assert_identical(specs)


@pytest.mark.parametrize("task", ["node", "link"])
@pytest.mark.parametrize("with_plan", [False, True])
def test_cosim_call_pattern_matches_oracle(graph, plan, task, with_plan):
    # The co-simulator trains one epoch per call with the plan phase
    # carried by start_epoch; model, Adam, store and RNG state must
    # persist across calls exactly as the serial loop's do.
    update_plan = plan if with_plan else None
    trainer = make_trainer(graph, task, random_state=3)
    oracle = make_oracle(graph, task, random_state=3)
    for epoch in range(8):
        fast = trainer.train(
            epochs=1, update_plan=update_plan, start_epoch=epoch,
        )
        ref = oracle.train(
            epochs=1, update_plan=update_plan, start_epoch=epoch,
        )
        _assert_same_result(fast, ref)
    assert trainer.model.params.keys() == oracle.model.params.keys()
    for key, weights in oracle.model.params.items():
        assert np.array_equal(trainer.model.params[key], weights)
    assert (
        trainer.model._rng.bit_generator.state
        == oracle.model._rng.bit_generator.state
    )


@pytest.mark.parametrize("task", ["node", "link"])
@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize(
    "bad", [{"analog_noise_sigma": -0.1}], ids=["sigma=-0.1"],
)
def test_invalid_spec_rejected_at_any_group_size(graph, task, replicas, bad):
    # Validation must not depend on how many replicas share the spec.
    specs = [
        ReplicaSpec(graph=graph, task=task, epochs=2, random_state=s, **bad)
        for s in range(replicas)
    ]
    with pytest.raises(TrainingError):
        train_replicas(specs)


def test_unknown_task_rejected(graph):
    with pytest.raises(TrainingError):
        train_replicas([
            ReplicaSpec(graph=graph, task="edge", epochs=2),
        ])


# ----------------------------------------------------------------------
# Split harness (the ablation loop) vs its serial oracle
# ----------------------------------------------------------------------
def _layer_dims(graph, num_layers=2):
    """``num_layers`` chained layers, 24 wide up to the class logits."""
    widths = [graph.feature_dim] + [24] * (num_layers - 1)
    return list(zip(widths, widths[1:] + [graph.num_classes]))


def _fleet(family, graph, seeds, num_layers=2, **kwargs):
    def make():
        return [
            family(_layer_dims(graph, num_layers), random_state=s, **kwargs)
            for s in seeds
        ]
    return make


def _assert_split_matches_oracle(make_models, graph, epochs, **schedule):
    # Best accuracy, final weights and model-stream RNG state, per model.
    fleet, oracle = make_models(), make_models()
    best = train_with_split(fleet, graph, epochs, 0, **schedule)
    assert best == split_oracle.train_fleet(
        oracle, graph, epochs, 0, **schedule,
    )
    for model, ref in zip(fleet, oracle):
        assert model.params.keys() == ref.params.keys()
        for key, weights in ref.params.items():
            assert np.array_equal(model.params[key], weights)
        assert model._rng.bit_generator.state == ref._rng.bit_generator.state


def test_split_replicas_match_serial_loop(graph):
    _assert_split_matches_oracle(_fleet(GCN, graph, range(4)), graph, 5)


def test_split_replicas_with_plans_match_store_loop(graph, plan):
    _assert_split_matches_oracle(
        _fleet(GCN, graph, range(4)), graph, 6,
        update_plans=[None, plan, None, plan],
    )


def test_split_replicas_with_delays_match_stale_loop(graph):
    _assert_split_matches_oracle(
        _fleet(GCN, graph, range(4)), graph, 6, param_delays=[0, 1, 2, 0],
    )


@pytest.mark.parametrize("family", [GCN, GraphSAGE], ids=["GCN", "SAGE"])
def test_split_replicas_with_plans_and_delays_match_oracle(graph, plan, family):
    # Delayed weights feed the training forward while the eval forward
    # reads the store; the GCN fleet reuses its training logits here.
    _assert_split_matches_oracle(
        _fleet(family, graph, range(4)), graph, 7,
        update_plans=[None, plan, plan, None], param_delays=[0, 1, 2, 2],
    )


@pytest.mark.parametrize("family, sigma, store, per_epoch", [
    (GCN, 0.0, True, 1),
    (GCN, 0.05, True, 2),
    (GCN, 0.0, False, 2),
    (GraphSAGE, None, True, 2),
], ids=["GCN-store", "GCN-store-noise", "GCN", "SAGE-store"])
def test_split_eval_forward_runs_only_when_it_can_differ(
    graph, plan, monkeypatch, family, sigma, store, per_epoch,
):
    # A GCN fleet with the store on and no noise would aggregate the
    # rows its training forward just wrote, so it reuses the training
    # logits; noise, fresh rows or SAGE's live self path need the eval.
    stacked = batched._STACKED_FAMILIES[family]
    forward = stacked.forward
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(stacked, "forward", counting)
    noise = {} if sigma is None else {"analog_noise_sigma": sigma}
    epochs = 4
    train_with_split(
        _fleet(family, graph, [0, 0], **noise)(), graph, epochs, 0,
        update_plans=[None, plan] if store else None,
    )
    assert len(calls) == per_epoch * epochs


def test_split_replicas_sage_matches_serial_loop(graph):
    _assert_split_matches_oracle(_fleet(GraphSAGE, graph, range(3)), graph, 5)


@pytest.mark.parametrize("family", [GCN, GraphSAGE], ids=["GCN", "SAGE"])
def test_split_model_family_shape(graph, plan, family):
    # abl-model-family: one seed, full-update vs ISU, store on.
    _assert_split_matches_oracle(
        _fleet(family, graph, [0, 0]), graph, 7, update_plans=[None, plan],
    )


def test_split_gcn_noise_and_delays(graph, plan):
    _assert_split_matches_oracle(
        _fleet(GCN, graph, range(3), analog_noise_sigma=0.02), graph, 4,
    )
    _assert_split_matches_oracle(
        _fleet(GCN, graph, range(3), analog_noise_sigma=0.02),
        graph, 6, param_delays=[0, 2, 1],
    )
    # With the store on, the noisy eval forward still runs and draws.
    _assert_split_matches_oracle(
        _fleet(GCN, graph, range(3), analog_noise_sigma=0.02),
        graph, 5, update_plans=[None, plan, plan],
    )


@pytest.mark.parametrize("schedule", [
    {}, {"update_plans": "plan"}, {"param_delays": [2]},
], ids=["plain", "plan", "delay"])
@pytest.mark.parametrize("family", [GCN, GraphSAGE], ids=["GCN", "SAGE"])
def test_split_fleet_of_one(graph, plan, family, schedule):
    if schedule.get("update_plans") == "plan":
        schedule = {"update_plans": [plan]}
    _assert_split_matches_oracle(
        _fleet(family, graph, [5]), graph, 6, **schedule,
    )


def test_split_sage_three_layers(graph, plan):
    _assert_split_matches_oracle(
        _fleet(GraphSAGE, graph, range(2), num_layers=3),
        graph, 6, update_plans=[plan, plan],
    )


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize(
    "bad", ["epochs=0", "delay=-1", "unlabelled", "input dim"],
)
def test_split_invalid_input_rejected_at_any_fleet_size(graph, replicas, bad):
    # Validation must not depend on how many models share the split.
    models = _fleet(GCN, graph, range(replicas))()
    epochs, delays, target = 3, None, graph
    if bad == "epochs=0":
        epochs = 0
    elif bad == "delay=-1":
        delays = [-1] * replicas
    elif bad == "unlabelled":
        target = Graph(graph.indptr, graph.indices, features=graph.features)
    else:
        target = Graph(
            graph.indptr, graph.indices,
            features=graph.features[:, :-1], labels=graph.labels,
        )
    with pytest.raises(TrainingError):
        train_with_split(models, target, epochs, 0, param_delays=delays)


@pytest.mark.parametrize("fleet", ["mixed family", "mixed dims", "empty"])
def test_split_incompatible_fleet_rejected(graph, fleet):
    models = {
        "mixed family": [GCN(_layer_dims(graph)), GraphSAGE(_layer_dims(graph))],
        "mixed dims": [GCN(_layer_dims(graph)), GCN(_layer_dims(graph, 3))],
        "empty": [],
    }[fleet]
    with pytest.raises(TrainingError):
        train_with_split(models, graph, 2, 0)
