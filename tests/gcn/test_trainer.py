"""Training loops: learning signal, ISU staleness, splits."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.trainer import (
    LinkPredictionTrainer,
    NodeClassificationTrainer,
    make_trainer,
)
from repro.graphs.generators import dc_sbm_graph
from repro.mapping.selective import build_update_plan


@pytest.fixture(scope="module")
def community_graph():
    return dc_sbm_graph(
        240, 3, 10.0, random_state=0, feature_dim=12, intra_ratio=0.9,
    )


def test_node_training_learns(community_graph):
    trainer = NodeClassificationTrainer(
        community_graph, hidden_dim=32, random_state=0,
    )
    result = trainer.train(epochs=25)
    assert result.best_test_metric > 0.6  # 3 classes, chance = 0.33
    assert result.losses[-1] < result.losses[0]
    assert len(result.test_metrics) == 25


def test_node_training_with_isu_close_to_full(community_graph):
    full = NodeClassificationTrainer(community_graph, random_state=0)
    base = full.train(epochs=20).best_test_metric
    plan = build_update_plan(community_graph, "isu", theta=0.5)
    isu = NodeClassificationTrainer(community_graph, random_state=0)
    with_isu = isu.train(epochs=20, update_plan=plan).best_test_metric
    assert with_isu > base - 0.1


def test_node_trainer_requires_labels(small_graph):
    # small_graph has labels; build one without.
    from repro.graphs.graph import Graph
    g = Graph.from_edges(
        small_graph.num_vertices, small_graph.edge_list(),
        features=small_graph.features,
    )
    with pytest.raises(TrainingError):
        NodeClassificationTrainer(g)


def test_link_training_learns(community_graph):
    trainer = LinkPredictionTrainer(community_graph, random_state=0)
    result = trainer.train(epochs=20)
    assert result.best_test_metric > 0.6  # balanced accuracy, chance 0.5


def test_link_split_disjoint(community_graph):
    trainer = LinkPredictionTrainer(community_graph, random_state=0)
    train_set = {tuple(e) for e in trainer.train_pos.tolist()}
    test_set = {tuple(e) for e in trainer.test_pos.tolist()}
    assert not train_set & test_set
    total = community_graph.num_edges
    assert len(train_set) + len(test_set) == total


def test_link_trainer_too_small():
    g = dc_sbm_graph(6, 1, 0.5, random_state=0, feature_dim=4)
    if g.num_edges < 4:
        with pytest.raises(TrainingError):
            LinkPredictionTrainer(g)


def test_training_deterministic(community_graph):
    a = NodeClassificationTrainer(community_graph, random_state=3)
    b = NodeClassificationTrainer(community_graph, random_state=3)
    ra = a.train(epochs=5)
    rb = b.train(epochs=5)
    np.testing.assert_allclose(ra.losses, rb.losses)


def test_make_trainer_dispatch(community_graph):
    assert isinstance(
        make_trainer(community_graph, "node"), NodeClassificationTrainer,
    )
    assert isinstance(
        make_trainer(community_graph, "link"), LinkPredictionTrainer,
    )
    with pytest.raises(TrainingError):
        make_trainer(community_graph, "regression")


def test_result_requires_epochs(community_graph):
    trainer = NodeClassificationTrainer(community_graph, random_state=0)
    with pytest.raises(TrainingError):
        trainer.train(epochs=0)
