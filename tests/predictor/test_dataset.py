"""Predictor training-data generation."""

import numpy as np
import pytest

from repro.errors import PredictorError
from repro.perf.cache import ArtifactCache
from repro.predictor.dataset import (
    PredictorDataset,
    generate_dataset,
    random_workload,
)
from repro.predictor.features import NUM_FEATURES
from repro.runtime import RunSpec, Session


def test_generate_dataset_shape():
    ds = generate_dataset(num_samples=100, random_state=0)
    assert ds.num_samples == 100
    assert ds.features.shape == (100, NUM_FEATURES + 1)
    assert ds.targets.shape == (100,)
    assert len(ds.stage_names) == 100


def test_generation_deterministic():
    a = generate_dataset(num_samples=60, random_state=4)
    b = generate_dataset(num_samples=60, random_state=4)
    np.testing.assert_allclose(a.features, b.features)
    np.testing.assert_allclose(a.targets, b.targets)


def test_targets_span_orders_of_magnitude():
    ds = generate_dataset(num_samples=200, random_state=1)
    assert ds.targets.max() - ds.targets.min() > 1.0  # > 10x in time


def test_split_fractions():
    ds = generate_dataset(num_samples=100, random_state=0)
    train, test = ds.split(train_fraction=0.8, random_state=0)
    assert train.num_samples == 80
    assert test.num_samples == 20
    # Disjoint: together they reproduce the multiset of targets.
    combined = np.sort(np.concatenate([train.targets, test.targets]))
    np.testing.assert_allclose(combined, np.sort(ds.targets))


def test_split_validation():
    ds = generate_dataset(num_samples=40, random_state=0)
    with pytest.raises(PredictorError):
        ds.split(train_fraction=0.0)
    with pytest.raises(PredictorError):
        ds.split(train_fraction=1.0)


def test_random_workload_variety():
    rng = np.random.default_rng(0)
    workloads = [random_workload(rng) for _ in range(8)]
    sizes = {wl.num_vertices for wl in workloads}
    depths = {wl.num_layers for wl in workloads}
    assert len(sizes) > 3
    assert depths <= {2, 3}
    for wl in workloads:
        # Layer dims chain correctly.
        for (_, out_d), (in_d, _) in zip(wl.layer_dims, wl.layer_dims[1:]):
            assert out_d == in_d


def test_generate_validation():
    with pytest.raises(PredictorError):
        generate_dataset(num_samples=0)
    with pytest.raises(PredictorError):
        generate_dataset(num_samples=10, noise_sigma=-1.0)


def test_samples_do_not_read_the_array_budget():
    # What lets the dataset and predictor keys leave the budget out.
    datasets = []
    for budget in (4 * 1024 ** 2, 16 * 1024 ** 3):
        session = Session(RunSpec(array_bytes=budget), cache=ArtifactCache())
        with session.use():
            datasets.append(generate_dataset(num_samples=800, random_state=0))
    small, large = datasets
    assert small.features.tobytes() == large.features.tobytes()
    assert small.targets.tobytes() == large.targets.tobytes()
    assert small.stage_names == large.stage_names
