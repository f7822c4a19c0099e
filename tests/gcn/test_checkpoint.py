"""Model checkpoint save/load/restore."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.gcn.batched import infer
from repro.gcn.checkpoint import (
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from repro.gcn.model import GCN
from repro.gcn.sage import GraphSAGE


def test_round_trip_gcn(tmp_path, tiny_graph):
    model = GCN([(4, 6), (6, 2)], random_state=0)
    path = tmp_path / "gcn.npz"
    save_checkpoint(model.params, model.layer_dims, path)

    fresh = GCN([(4, 6), (6, 2)], random_state=99)
    before = infer(fresh, tiny_graph, tiny_graph.features)
    restore_model(fresh, path)
    after = infer(fresh, tiny_graph, tiny_graph.features)
    reference = infer(model, tiny_graph, tiny_graph.features)
    assert not np.allclose(before, reference)
    np.testing.assert_allclose(after, reference, rtol=1e-6)


def test_round_trip_sage(tmp_path, tiny_graph):
    model = GraphSAGE([(4, 3)], random_state=1)
    path = tmp_path / "sage.npz"
    save_checkpoint(model.params, model.layer_dims, path)
    fresh = GraphSAGE([(4, 3)], random_state=7)
    restore_model(fresh, path)
    for key in model.params:
        np.testing.assert_allclose(fresh.params[key], model.params[key])


def test_dims_mismatch_rejected(tmp_path):
    model = GCN([(4, 6)], random_state=0)
    path = tmp_path / "gcn.npz"
    save_checkpoint(model.params, model.layer_dims, path)
    wrong = GCN([(4, 8)], random_state=0)
    with pytest.raises(TrainingError):
        restore_model(wrong, path)


def test_missing_param_rejected(tmp_path):
    model = GCN([(4, 6)], random_state=0)
    path = tmp_path / "partial.npz"
    save_checkpoint({}, model.layer_dims, path)
    with pytest.raises(TrainingError):
        restore_model(model, path)


def test_reserved_names_rejected(tmp_path):
    with pytest.raises(TrainingError):
        save_checkpoint(
            {"layer_dims": np.zeros(1)}, [(2, 2)], tmp_path / "x.npz",
        )


def test_load_validation(tmp_path):
    with pytest.raises(TrainingError):
        load_checkpoint(tmp_path / "absent.npz")
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, something=np.zeros(1))
    with pytest.raises(TrainingError):
        load_checkpoint(bad)
