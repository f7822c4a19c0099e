"""Shared fixtures: small deterministic graphs, workloads, configs, and
a session whose cache starts empty."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import dc_sbm_graph
from repro.graphs.graph import Graph
from repro.hardware.config import HardwareConfig
from repro.perf.cache import ENV_DISK_CACHE, ArtifactCache
from repro.runtime import Session
from repro.stages.workload import Workload


@pytest.fixture
def tiny_graph() -> Graph:
    """A hand-built 6-vertex graph with known degrees."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]
    features = np.arange(6 * 4, dtype=np.float32).reshape(6, 4)
    labels = np.array([0, 0, 0, 1, 1, 1])
    return Graph.from_edges(
        6, edges, features=features, labels=labels, name="tiny",
    )


@pytest.fixture
def small_graph() -> Graph:
    """A 200-vertex DC-SBM graph with features and labels."""
    return dc_sbm_graph(
        num_vertices=200,
        num_communities=4,
        avg_degree=10.0,
        random_state=7,
        feature_dim=16,
        name="small",
    )


@pytest.fixture
def small_workload(small_graph) -> Workload:
    """A 2-layer workload over the small graph."""
    return Workload(
        graph=small_graph,
        layer_dims=[(16, 32), (32, 8)],
        micro_batch=32,
        name="small",
    )


@pytest.fixture
def small_config() -> HardwareConfig:
    """Hardware config with a budget small enough to bind allocation."""
    return HardwareConfig().scaled(array_capacity_bytes=4 * 1024 ** 2)


@pytest.fixture
def fresh_cache(monkeypatch) -> Session:
    """The test runs in a session with its own empty, memory-only cache:
    every artifact it asks for is built, none is served from an earlier
    test (the ``"training"`` memo would otherwise stand in for the
    engine a bit-identity test exercises)."""
    monkeypatch.delenv(ENV_DISK_CACHE, raising=False)
    with Session(cache=ArtifactCache()).use() as session:
        yield session
