"""Oracle for ISU's interleaved mapping: the original dealing loop.

:func:`repro.mapping.vertex_map.interleaved_mapping` replaces the
round-robin occupancy bookkeeping with ``i mod C`` / ``i div C``
arithmetic; the loop here deals vertex by vertex, including the
skip-full-crossbar probe the vectorized form proves dead.  The mappings
must be byte-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MappingError
from repro.graphs.graph import Graph
from repro.graphs.sparsify import degree_rank
from repro.mapping.vertex_map import VertexMapping, _validate


def interleaved_mapping_reference(
    graph: Graph,
    rows_per_crossbar: int = 64,
    num_scopes: Optional[int] = None,
    random_state: int = 0,
) -> VertexMapping:
    """Dealing-loop form of :func:`interleaved_mapping` (byte-identical
    equivalence oracle, including the skip-full-crossbar probe the
    vectorized form proves dead)."""
    num_vertices = graph.num_vertices
    _validate(num_vertices, rows_per_crossbar)
    num_crossbars = -(-num_vertices // rows_per_crossbar)
    scopes = num_scopes if num_scopes is not None else rows_per_crossbar
    if scopes < 1:
        raise MappingError("num_scopes must be >= 1")
    rng = np.random.default_rng(random_state)

    order = degree_rank(graph)
    scope_size = -(-num_vertices // scopes)
    crossbar_of = np.empty(num_vertices, dtype=np.int64)
    wordline_of = np.empty(num_vertices, dtype=np.int64)
    slots_used = np.zeros(num_crossbars, dtype=np.int64)
    cursor = 0
    for scope_start in range(0, num_vertices, scope_size):
        members = order[scope_start:scope_start + scope_size]
        members = members[rng.permutation(members.size)]
        for vertex in members:
            # Deal to the next crossbar with free wordlines (round-robin).
            for _ in range(num_crossbars):
                crossbar = cursor % num_crossbars
                cursor += 1
                if slots_used[crossbar] < rows_per_crossbar:
                    break
            crossbar_of[vertex] = crossbar
            wordline_of[vertex] = slots_used[crossbar]
            slots_used[crossbar] += 1
    return VertexMapping(
        crossbar_of=crossbar_of,
        wordline_of=wordline_of,
        num_crossbars=num_crossbars,
        rows_per_crossbar=rows_per_crossbar,
        strategy="interleaved",
    )
