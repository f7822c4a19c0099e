"""Vectorized interleaved dealer vs the original dealing loop.

The vectorized form relies on a dead-code proof: pure round-robin dealing
never encounters a full crossbar (crossbar ``j``'s capacity probe lands at
deal position ``>= rows * C >= N``, past the end), so the occupancy
bookkeeping in the reference can be replaced by ``i mod C`` / ``i div C``
arithmetic on the concatenated shuffled scopes.  The per-scope permutation
draws stay separate RNG calls, so the streams line up and the mappings
must be *byte-identical* — asserted here across shapes that stress every
edge of the proof (N not divisible by rows, one scope, fewer scopes than
rows, trailing partial scope).
"""

import numpy as np
import pytest

from repro.graphs.generators import dc_sbm_graph
from repro.mapping.vertex_map import interleaved_mapping
from tests.oracles.mapping import interleaved_mapping_reference


@pytest.mark.parametrize("num_vertices,rows,scopes,seed", [
    (256, 64, None, 0),    # default: scopes == rows, exact fill
    (250, 64, None, 1),    # N not divisible by rows
    (240, 16, 1, 2),       # single scope (one global shuffle)
    (240, 16, 4, 3),       # fewer scopes than rows
    (240, 16, 7, 4),       # scope size doesn't divide N
    (33, 64, None, 5),     # fewer vertices than one crossbar
    (65, 64, 13, 6),       # one full crossbar plus one vertex
])
def test_byte_identical_to_reference(num_vertices, rows, scopes, seed):
    graph = dc_sbm_graph(
        num_vertices, max(2, num_vertices // 100), 6.0,
        random_state=seed, feature_dim=4,
    )
    vec = interleaved_mapping(
        graph, rows_per_crossbar=rows, num_scopes=scopes, random_state=seed,
    )
    ref = interleaved_mapping_reference(
        graph, rows_per_crossbar=rows, num_scopes=scopes, random_state=seed,
    )
    np.testing.assert_array_equal(vec.crossbar_of, ref.crossbar_of)
    np.testing.assert_array_equal(vec.wordline_of, ref.wordline_of)
    assert vec.num_crossbars == ref.num_crossbars
    assert vec.rows_per_crossbar == ref.rows_per_crossbar
    assert vec.strategy == ref.strategy == "interleaved"


def test_capacity_never_exceeded_on_awkward_shapes():
    for num_vertices, rows in [(100, 7), (101, 7), (7, 7), (8, 7)]:
        graph = dc_sbm_graph(
            num_vertices, 2, 4.0, random_state=9, feature_dim=4,
        )
        mapping = interleaved_mapping(graph, rows_per_crossbar=rows)
        counts = np.bincount(
            mapping.crossbar_of, minlength=mapping.num_crossbars,
        )
        assert counts.max() <= rows
        # Wordlines are unique within each crossbar.
        slots = mapping.crossbar_of * rows + mapping.wordline_of
        assert np.unique(slots).size == num_vertices


def test_seed_changes_mapping_but_not_balance():
    graph = dc_sbm_graph(256, 2, 6.0, random_state=0, feature_dim=4)
    a = interleaved_mapping(graph, 16, random_state=0)
    b = interleaved_mapping(graph, 16, random_state=1)
    assert not np.array_equal(a.crossbar_of, b.crossbar_of)
    counts_a = np.bincount(a.crossbar_of, minlength=a.num_crossbars)
    counts_b = np.bincount(b.crossbar_of, minlength=b.num_crossbars)
    np.testing.assert_array_equal(np.sort(counts_a), np.sort(counts_b))
