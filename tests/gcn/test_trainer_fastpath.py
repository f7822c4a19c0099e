"""Trainer eval fast path vs the eval-forward-every-epoch reference.

Every epoch is evaluated.  Without analog noise the eval forward would
reproduce the training output (it reads the resident rows the training
forward just wrote), so the trainers reuse it; with noise the eval
forward draws from the model stream and is recomputed.  Either way the
losses and per-epoch metrics must equal the serial oracle's
``train_reference`` (``tests/oracles/trainers.py``), which always runs
the eval forward, bit for bit.  Covered for both trainers (node
classification and link prediction), with and without an ISU
:class:`UpdatePlan`, and for the ``start_epoch`` phase the co-simulator
drives.  Each test runs in a fresh-cache session, so ``train_replicas``
trains on the engine instead of reading the ``"training"`` memo.
"""

import pytest

from repro.accelerators import gopim
from repro.core import CoSimulation
from repro.errors import TrainingError
from repro.gcn.batched import ReplicaSpec, TrainingResult, train_replicas
from repro.gcn.trainer import make_trainer
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan
from repro.perf.cache import ArtifactCache
from repro.runtime import RunSpec, Session
from tests.oracles import trainers as oracle

pytestmark = pytest.mark.usefixtures("fresh_cache")


@pytest.fixture(scope="module")
def graph():
    return dc_sbm_graph(
        240, 3, 10.0, random_state=0, feature_dim=12, intra_ratio=0.9,
    )


@pytest.fixture(scope="module")
def plan(graph):
    return build_update_plan(graph, "isu", theta=0.5, minor_period=5)


def _assert_same_history(fast, ref):
    assert fast.losses == ref.losses  # exact: same training computation
    assert fast.train_metrics == ref.train_metrics
    assert fast.test_metrics == ref.test_metrics


@pytest.mark.parametrize("with_plan", [False, True], ids=["full", "isu"])
@pytest.mark.parametrize("task", ["node", "link"])
def test_reused_eval_output_matches_reference(graph, plan, task, with_plan):
    update_plan = plan if with_plan else None
    fast = make_trainer(graph, task, random_state=1).train(
        epochs=12, update_plan=update_plan,
    )
    ref = oracle.make_trainer(graph, task, random_state=1).train_reference(
        epochs=12, update_plan=update_plan,
    )
    _assert_same_history(fast, ref)


@pytest.mark.parametrize("task", ["node", "link"])
def test_analog_noise_recomputes_eval_and_matches_reference(graph, task):
    [fast] = train_replicas([
        ReplicaSpec(
            graph=graph, task=task, epochs=8, random_state=1,
            analog_noise_sigma=0.05,
        ),
    ])
    ref = oracle.make_trainer(
        graph, task, random_state=1, analog_noise_sigma=0.05,
    ).train_reference(epochs=8)
    _assert_same_history(fast, ref)


def test_start_epoch_keeps_plan_phase(graph, plan):
    fast = make_trainer(graph, "node", random_state=1).train(
        epochs=7, start_epoch=3, update_plan=plan,
    )
    ref = oracle.make_trainer(graph, "node", random_state=1).train_reference(
        epochs=7, start_epoch=3, update_plan=plan,
    )
    _assert_same_history(fast, ref)


def test_final_epoch_always_evaluated(graph):
    # The last metric is the one the model earns after its last update:
    # resuming for that one epoch records the same value.
    result = make_trainer(graph, "node", random_state=1).train(epochs=10)
    assert len(result.losses) == len(result.test_metrics) == 10
    trainer = make_trainer(graph, "node", random_state=1)
    trainer.train(epochs=9)
    [last] = trainer.train(epochs=1, start_epoch=9).test_metrics
    assert result.final_test_metric == last


def test_analog_noise_forces_per_epoch_cadence(graph):
    # Eval forwards draw read noise from the model's RNG stream, so every
    # epoch runs its own and a rerun repeats the same draws.
    spec = ReplicaSpec(
        graph=graph, task="node", epochs=6, random_state=1,
        analog_noise_sigma=0.05,
    )
    [first] = train_replicas([spec])
    with Session(cache=ArtifactCache()).use():  # trains again: no hit
        [second] = train_replicas([spec])
    assert len(first.test_metrics) == 6
    _assert_same_history(first, second)


def test_strided_result_properties(graph):
    # With every epoch evaluated, the summary properties read the whole
    # per-epoch history; an empty history has no final or best metric.
    result = make_trainer(graph, "node", random_state=1).train(epochs=9)
    assert len(result.test_metrics) == 9
    assert result.final_test_metric == result.test_metrics[-1]
    assert result.best_test_metric == max(result.test_metrics)
    with pytest.raises(TrainingError):
        TrainingResult().final_test_metric
    with pytest.raises(TrainingError):
        TrainingResult().best_test_metric


def test_one_metric_per_epoch(graph, plan):
    epochs = 5
    runs = [
        make_trainer(graph, task).train(epochs=epochs, update_plan=plan)
        for task in ("node", "link")
    ]
    runs += train_replicas([
        ReplicaSpec(
            graph=graph, task=task, epochs=epochs, random_state=seed,
            update_plan=plan, analog_noise_sigma=sigma,
        )
        for task in ("node", "link")
        for sigma in (0.0, 0.05)
        for seed in (0, 1)
    ])
    for run in runs:
        assert (
            len(run.losses) == len(run.train_metrics)
            == len(run.test_metrics) == epochs
        )

    session = Session(RunSpec(scale=0.25))
    with session.use():
        result = CoSimulation(gopim()).run(
            session.graph("arxiv", seed=0), "arxiv", epochs=3,
        )
    assert (
        len(result.losses) == len(result.test_metrics)
        == len(result.epoch_times_ns) == 3
    )
