"""Replica-batched training vs the serial oracle loops, bit for bit.

``train_replicas`` stacks R compatible runs into one ``[R, ...]`` tensor
pass; its contract is *exact* equality with training each
:class:`~repro.gcn.batched.ReplicaSpec` on the serial trainer loops kept
in ``tests/oracles/trainers.py`` — losses, train/test metric histories,
and eval epochs, not approximately but bitwise (``==`` on the float
lists).  These tests sweep the dimensions a group may vary in (seed,
update plan) and the knobs it must carry through unchanged (dropout,
analog noise, strided eval), plus groups of one, the co-simulator's
one-epoch-per-call pattern, input validation, ordering, and the
split-harness batched path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.batched import ReplicaSpec, train_replicas
from repro.gcn.trainer import make_trainer
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan
from tests.oracles.trainers import make_trainer as make_oracle


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
        hidden_dim=spec.hidden_dim, num_layers=spec.num_layers,
        learning_rate=spec.learning_rate, dropout=spec.dropout,
        test_fraction=spec.resolved_test_fraction(),
        analog_noise_sigma=spec.analog_noise_sigma,
        **({"embedding_dim": spec.embedding_dim}
           if spec.task == "link" else {}),
    )
    return trainer.train(
        epochs=spec.epochs, update_plan=spec.update_plan,
        start_epoch=spec.start_epoch, eval_every=spec.eval_every,
    )


def _assert_same_result(fast, ref):
    assert fast.losses == ref.losses
    assert fast.train_metrics == ref.train_metrics
    assert fast.test_metrics == ref.test_metrics
    assert fast.eval_epochs == ref.eval_epochs


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
def test_dropout_and_analog_noise(graph, task):
    # Per-epoch model randomness must come off the same stream draws.
    _assert_identical([
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=s,
            dropout=0.3, analog_noise_sigma=0.02,
        )
        for s in range(3)
    ])


@pytest.mark.parametrize("task", ["node", "link"])
def test_strided_eval(graph, task):
    _assert_identical([
        ReplicaSpec(
            graph=graph, task=task, epochs=7, random_state=s,
            eval_every=3,
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
    kwargs = dict(hidden_dim=24, random_state=3)
    if task == "link":
        kwargs["embedding_dim"] = 16
    trainer = make_trainer(graph, task, **kwargs)
    oracle = make_oracle(graph, task, **kwargs)
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
@pytest.mark.parametrize("bad", [
    {"dropout": 1.0},
    {"dropout": -0.1},
    {"analog_noise_sigma": -0.1},
    {"num_layers": 0},
], ids=["dropout=1.0", "dropout=-0.1", "sigma=-0.1", "num_layers=0"])
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
# Split-harness batched path (the ablation loop)
# ----------------------------------------------------------------------
def _layer_dims(graph):
    fd = graph.features.shape[1]
    classes = int(graph.labels.max()) + 1
    return [(fd, 24), (24, classes)]


def _fresh_models(graph, n):
    from repro.gcn.model import GCN

    return [GCN(_layer_dims(graph), random_state=s) for s in range(n)]


def _serial_split(graph, model, epochs, seed, plan=None, delay=None,
                  use_store=False):
    # A single-model call falls back to the harness's serial
    # ``train_with_split`` loop — the exact reference semantics
    # (closure shapes included) the batched path must reproduce.
    from repro.experiments.harness import train_with_split_replicas

    [best] = train_with_split_replicas(
        [model], graph, epochs, seed,
        update_plans=[plan] if use_store or plan is not None else None,
        use_store=use_store,
        param_delays=None if delay is None else [delay],
    )
    return best


def test_split_replicas_match_serial_loop(graph):
    from repro.experiments.harness import train_with_split_replicas

    batched = train_with_split_replicas(
        _fresh_models(graph, 4), graph, epochs=5, seed=0,
    )
    serial = [
        _serial_split(graph, model, epochs=5, seed=0)
        for model in _fresh_models(graph, 4)
    ]
    assert batched == serial


def test_split_replicas_with_plans_match_store_loop(graph, plan):
    from repro.experiments.harness import train_with_split_replicas

    plans = [None, plan, None, plan]
    batched = train_with_split_replicas(
        _fresh_models(graph, 4), graph, epochs=5, seed=0,
        update_plans=plans, use_store=True,
    )
    serial = [
        _serial_split(graph, model, epochs=5, seed=0, plan=p,
                      use_store=True)
        for model, p in zip(_fresh_models(graph, 4), plans)
    ]
    assert batched == serial


def test_split_replicas_with_delays_match_stale_loop(graph):
    from repro.experiments.harness import train_with_split_replicas

    delays = [0, 1, 2, 0]
    batched = train_with_split_replicas(
        _fresh_models(graph, 4), graph, epochs=6, seed=0,
        param_delays=delays,
    )
    serial = [
        _serial_split(graph, model, epochs=6, seed=0, delay=d)
        for model, d in zip(_fresh_models(graph, 4), delays)
    ]
    assert batched == serial


def test_split_replicas_sage_falls_back(graph):
    # A non-GCN family is not batchable; the harness must still return
    # the serial results (one per model, input order).
    from repro.experiments.harness import train_with_split_replicas
    from repro.gcn.sage import GraphSAGE

    dims = _layer_dims(graph)
    batched = train_with_split_replicas(
        [GraphSAGE(dims, random_state=s) for s in range(2)],
        graph, epochs=4, seed=0,
    )
    serial = [
        _serial_split(graph, GraphSAGE(dims, random_state=s),
                      epochs=4, seed=0)
        for s in range(2)
    ]
    assert batched == serial
