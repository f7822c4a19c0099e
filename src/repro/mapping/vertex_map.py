"""Vertex-to-crossbar mapping strategies (Sections III-A and VI-B).

A vertex mapping assigns each graph vertex to one wordline of one row-tile
crossbar of the Aggregation stage's mapped feature matrix.  Two strategies
are implemented:

* :func:`index_mapping` — the baseline used by ReGraphX/SlimGNN: vertex
  ``v`` goes to crossbar ``v // rows``, wordline ``v % rows``.  Because
  real graphs store related (often similar-degree) vertices contiguously,
  this produces the heavily skewed per-crossbar degree profile of Fig. 6.
* :func:`interleaved_mapping` — GoPIM's ISU mapping: vertices are sorted
  by descending degree, the sorted list is cut into K scopes of ~equal
  size, and crossbars draw one vertex from each scope round-robin, so
  every crossbar holds a stratified sample of the degree distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import MappingError
from repro.graphs.graph import Graph
from repro.graphs.sparsify import degree_rank
from repro.perf import profile


@dataclass(frozen=True)
class VertexMapping:
    """Assignment of vertices to (crossbar, wordline) slots.

    Attributes
    ----------
    crossbar_of:
        ``crossbar_of[v]`` is the row-tile crossbar holding vertex ``v``.
    wordline_of:
        ``wordline_of[v]`` is the wordline within that crossbar.
    num_crossbars:
        Number of row-tile crossbars used.
    rows_per_crossbar:
        Wordlines per crossbar.
    strategy:
        ``"index"`` or ``"interleaved"`` (for reports).
    """

    crossbar_of: np.ndarray
    wordline_of: np.ndarray
    num_crossbars: int
    rows_per_crossbar: int
    strategy: str

    @property
    def num_vertices(self) -> int:
        """Number of mapped vertices."""
        return int(self.crossbar_of.size)

    def vertices_on(self, crossbar: int) -> np.ndarray:
        """Vertex ids mapped to ``crossbar``."""
        if not 0 <= crossbar < self.num_crossbars:
            raise MappingError(f"crossbar {crossbar} out of range")
        return np.flatnonzero(self.crossbar_of == crossbar)

    def rows_per_crossbar_for(self, vertices: np.ndarray) -> np.ndarray:
        """Per-crossbar count of how many of ``vertices`` map to each.

        This is the quantity whose *maximum* determines the serial write
        time of an update round (writes serialise within a crossbar,
        parallelise across crossbars).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self.num_vertices
        ):
            raise MappingError("vertex ids out of range")
        counts = np.zeros(self.num_crossbars, dtype=np.int64)
        np.add.at(counts, self.crossbar_of[vertices], 1)
        return counts

    def average_degree_per_crossbar(self, graph: Graph) -> np.ndarray:
        """Mean degree of the vertices on each crossbar (Fig. 6's metric)."""
        if graph.num_vertices != self.num_vertices:
            raise MappingError("graph does not match this mapping")
        sums = np.zeros(self.num_crossbars, dtype=np.float64)
        counts = np.zeros(self.num_crossbars, dtype=np.int64)
        np.add.at(sums, self.crossbar_of, graph.degrees.astype(np.float64))
        np.add.at(counts, self.crossbar_of, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        return means


def _validate(num_vertices: int, rows_per_crossbar: int) -> None:
    if num_vertices < 1:
        raise MappingError("need at least one vertex")
    if rows_per_crossbar < 1:
        raise MappingError("rows_per_crossbar must be >= 1")


def index_mapping(
    num_vertices: int,
    rows_per_crossbar: int = 64,
) -> VertexMapping:
    """Map vertices to crossbars in vertex-id order (the baseline)."""
    _validate(num_vertices, rows_per_crossbar)
    ids = np.arange(num_vertices, dtype=np.int64)
    return VertexMapping(
        crossbar_of=ids // rows_per_crossbar,
        wordline_of=ids % rows_per_crossbar,
        num_crossbars=-(-num_vertices // rows_per_crossbar),
        rows_per_crossbar=rows_per_crossbar,
        strategy="index",
    )


@profile.phase(profile.PHASE_MAPPING)
def interleaved_mapping(
    graph: Graph,
    rows_per_crossbar: int = 64,
    num_scopes: Optional[int] = None,
    random_state: int = 0,
) -> VertexMapping:
    """GoPIM's interleaved mapping (Section VI-B, Fig. 11).

    Vertices are sorted by descending degree and divided into ``K`` scopes
    of ``N/K`` vertices; crossbars take one vertex from each scope in a
    round-robin pass, so each crossbar receives a stratified sample of the
    degree distribution.  Vertices *within* a scope are considered equally
    important (Fig. 11), so their dealing order is arbitrary — a seeded
    shuffle here — which is exactly why the scope count matters: with
    ``K = rows_per_crossbar`` (the default) every scope contributes one
    vertex per crossbar and balance is guaranteed, while small ``K``
    degrades towards random assignment.
    """
    num_vertices = graph.num_vertices
    _validate(num_vertices, rows_per_crossbar)
    num_crossbars = -(-num_vertices // rows_per_crossbar)
    scopes = num_scopes if num_scopes is not None else rows_per_crossbar
    if scopes < 1:
        raise MappingError("num_scopes must be >= 1")
    rng = np.random.default_rng(random_state)

    order = degree_rank(graph)  # descending degree, deterministic ties
    scope_size = -(-num_vertices // scopes)
    # Concatenate the shuffled scopes into the global dealing order (the
    # per-scope permutation draws must stay separate calls so the RNG
    # stream matches the reference exactly).
    dealt = np.empty(num_vertices, dtype=np.int64)
    for scope_start in range(0, num_vertices, scope_size):
        members = order[scope_start:scope_start + scope_size]
        dealt[scope_start:scope_start + members.size] = (
            members[rng.permutation(members.size)]
        )
    # Pure round-robin never meets a full crossbar: crossbar j is probed
    # for the r-th time at deal position (r-1)*C + j, and its capacity
    # probe at r = rows_per_crossbar lands at position >= rows*C >= N —
    # past the end.  So deal position i maps to crossbar i mod C,
    # wordline i div C, with no occupancy bookkeeping
    # (byte-identity: tests/mapping/test_interleaved_vectorized.py).
    slots = np.arange(num_vertices, dtype=np.int64)
    crossbar_of = np.empty(num_vertices, dtype=np.int64)
    wordline_of = np.empty(num_vertices, dtype=np.int64)
    crossbar_of[dealt] = slots % num_crossbars
    wordline_of[dealt] = slots // num_crossbars
    return VertexMapping(
        crossbar_of=crossbar_of,
        wordline_of=wordline_of,
        num_crossbars=num_crossbars,
        rows_per_crossbar=rows_per_crossbar,
        strategy="interleaved",
    )
