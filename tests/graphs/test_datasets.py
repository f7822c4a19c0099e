"""Dataset catalog: Table III statistics, scaling, id/degree correlation."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.datasets import (
    DATASET_SPECS,
    get_spec,
    load_dataset,
    relabel_by_noisy_degree,
)
from repro.mapping.selective import adaptive_theta


def test_catalog_covers_paper_tables():
    assert set(DATASET_SPECS) == {
        "ddi", "collab", "ppa", "proteins", "arxiv", "products", "cora",
    }


def test_spec_paper_statistics_quoted():
    ddi = get_spec("ddi")
    assert ddi.paper_vertices == 4267
    assert ddi.paper_avg_degree == 500.5
    assert ddi.feature_dim == 256
    assert ddi.num_layers == 2
    cora = get_spec("cora")
    assert cora.paper_avg_degree == 3.9


def test_density_classification_matches_paper():
    # Dense: avg degree > 8 -> theta 50%; sparse -> 80%.
    assert get_spec("ddi").is_dense
    assert get_spec("ddi").selective_threshold == 0.5
    assert not get_spec("cora").is_dense
    assert get_spec("cora").selective_threshold == 0.8
    assert get_spec("collab").is_dense  # 8.2 > 8


def test_scale_factor_positive():
    # Every stand-in scales its dataset down (or keeps it at full size).
    for spec in DATASET_SPECS.values():
        assert spec.paper_vertices >= spec.sim_vertices


def test_get_spec_case_insensitive_and_unknown():
    assert get_spec("DDI").name == "ddi"
    with pytest.raises(GraphError):
        get_spec("imaginary")


@pytest.mark.parametrize("name", tuple(DATASET_SPECS))
def test_load_dataset_matches_spec(name):
    spec = get_spec(name)
    g = load_dataset(name, random_state=0)
    assert g.num_vertices == spec.sim_vertices
    assert g.feature_dim == spec.feature_dim
    # Average degree within 25% of the simulated target.
    assert g.average_degree == pytest.approx(spec.sim_avg_degree, rel=0.25)
    # Density class preserved: the graph's adaptive theta is the spec's.
    assert adaptive_theta(g) == spec.selective_threshold


def test_load_dataset_scaling():
    g = load_dataset("cora", random_state=0, scale=0.5)
    assert g.num_vertices == pytest.approx(678 * 0.5, abs=2)
    with pytest.raises(GraphError):
        load_dataset("cora", scale=0.0)


def test_load_dataset_deterministic():
    a = load_dataset("arxiv", random_state=9)
    b = load_dataset("arxiv", random_state=9)
    np.testing.assert_array_equal(a.indices, b.indices)


def test_vertex_ids_correlate_with_degree():
    # Index mapping's skew (Fig. 6) requires id/degree correlation.
    g = load_dataset("proteins", random_state=0)
    n = g.num_vertices
    first_quarter = g.degrees[: n // 4].mean()
    last_quarter = g.degrees[-n // 4:].mean()
    assert first_quarter > 1.8 * last_quarter
    # The hubs concentrate at low ids: the top-64 id block's mean degree
    # towers over the bottom block's (the Fig. 6 mechanism).
    assert g.degrees[:64].mean() > 4 * g.degrees[-64:].mean()


def test_relabel_preserves_structure(small_graph):
    relabelled = relabel_by_noisy_degree(small_graph, random_state=0)
    assert relabelled.num_edges == small_graph.num_edges
    np.testing.assert_array_equal(
        np.sort(relabelled.degrees), np.sort(small_graph.degrees),
    )
    # Features/labels follow their vertices: label histogram unchanged.
    np.testing.assert_array_equal(
        np.bincount(relabelled.labels), np.bincount(small_graph.labels),
    )
