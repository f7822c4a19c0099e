"""Selective vertex updating: OSU vs GoPIM's ISU (Sections III-B and VI).

Selectively updating vertices reduces ReRAM row writes, but only helps if
the *busiest* crossbar's write load shrinks — writes serialise within a
crossbar and parallelise across crossbars, so an update round costs

    ``max over crossbars (selected rows mapped to that crossbar)``

write slots (Fig. 7's cycle counting).  The two schemes differ only in the
mapping they pair with selection:

* **OSU** — selection + index mapping: important (high-degree) vertices
  cluster on a few crossbars, so the max barely drops;
* **ISU** — selection + interleaved mapping: every crossbar holds the same
  share of important vertices, so the max drops by ~theta.

The adaptive threshold (Section VI-C): theta = 50% for dense graphs
(average degree > 8), 80% for sparse graphs; important vertices update
every epoch, the rest every ``minor_period`` (20) epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.errors import MappingError
from repro.graphs.datasets import (
    DENSE_DEGREE_THRESHOLD,
    DENSE_THETA,
    SPARSE_THETA,
)
from repro.graphs.graph import Graph
from repro.graphs.sparsify import top_degree_vertices
from repro.mapping.vertex_map import (
    VertexMapping,
    index_mapping,
    interleaved_mapping,
)
from repro.perf import cache_key, profile

MINOR_UPDATE_PERIOD = 20


def adaptive_theta(graph: Graph) -> float:
    """Section VI-C's adaptive update threshold for ``graph``."""
    if graph.average_degree > DENSE_DEGREE_THRESHOLD:
        return DENSE_THETA
    return SPARSE_THETA


@dataclass(frozen=True)
class UpdatePlan:
    """Which vertices update when, and where they live on crossbars.

    ``important`` vertices are written every epoch; the rest every
    ``minor_period`` epochs.  ``mapping`` determines the per-crossbar write
    distribution and hence the serial write-cycle count.  The plan holds
    no reference to its graph: :func:`build_update_plan` memoises it on
    the graph, and a back-reference would make that memo a cycle.
    """

    mapping: VertexMapping
    important: np.ndarray  # sorted vertex ids updated every epoch
    theta: float
    minor_period: int = MINOR_UPDATE_PERIOD

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise MappingError("theta must be in [0, 1]")
        if self.minor_period < 1:
            raise MappingError("minor_period must be >= 1")

    def content_fingerprint(self) -> str:
        """Digest of what the plan prices: the crossbar of every vertex,
        the important set, theta and the minor period (computed once)."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return cache_key(
            self.mapping.crossbar_of, self.important, float(self.theta),
            self.minor_period,
        )

    @property
    def num_important(self) -> int:
        """Vertices refreshed every epoch."""
        return int(self.important.size)

    def is_update_epoch_for_minor(self, epoch: int) -> bool:
        """Whether less-important vertices refresh at ``epoch``."""
        return epoch % self.minor_period == 0

    def vertices_updated_at(self, epoch: int) -> np.ndarray:
        """Vertex ids written during ``epoch``."""
        if self.is_update_epoch_for_minor(epoch):
            return np.arange(self.mapping.num_vertices, dtype=np.int64)
        return self.important

    def write_cycles_at(self, epoch: int) -> int:
        """Serial write-cycle count of the update round at ``epoch``.

        Writes within one crossbar serialise, crossbars run in parallel,
        so the round costs the per-crossbar maximum (Fig. 7).
        """
        updated = self.vertices_updated_at(epoch)
        if updated.size == 0:
            return 0
        counts = self.mapping.rows_per_crossbar_for(updated)
        return int(counts.max())

    def average_write_cycles(self) -> float:
        """Steady-state write cycles per epoch, amortising minor refreshes.

        One epoch in ``minor_period`` pays the full-graph round; the rest
        pay only the important-set round.
        """
        full = self.write_cycles_at(0)
        partial = (
            self.write_cycles_at(1) if self.minor_period > 1 else full
        )
        period = self.minor_period
        return (full + (period - 1) * partial) / period

    def rows_written_per_epoch(self) -> float:
        """Average total rows written per epoch (drives write energy)."""
        n = self.mapping.num_vertices
        k = self.num_important
        period = self.minor_period
        return (n + (period - 1) * k) / period


@profile.phase(profile.PHASE_MAPPING)
def build_update_plan(
    graph: Graph,
    strategy: str = "isu",
    theta: Optional[float] = None,
    rows_per_crossbar: Optional[int] = None,
    minor_period: int = MINOR_UPDATE_PERIOD,
) -> UpdatePlan:
    """Construct an :class:`UpdatePlan` for a named scheme.

    Parameters
    ----------
    strategy:
        ``"isu"`` (interleaved mapping), ``"osu"`` (index mapping with
        selection), or ``"full"`` (index mapping, no selection — every
        vertex updates every epoch, the Serial/ReGraphX behaviour).
    theta:
        Update threshold; defaults to the adaptive rule.
    rows_per_crossbar:
        Wordlines per crossbar; defaults to the current session's
        ``crossbar_rows``.

    The plan is memoised on ``graph`` per (strategy, rows, resolved
    theta, minor period), as
    :func:`~repro.graphs.sparsify.sparsify_by_degree` memoises its
    prunes: equal arguments return the same instance, whose
    ``crossbar_of``, ``wordline_of`` and ``important`` are read-only.
    """
    strategy = strategy.lower()
    if strategy not in ("isu", "osu", "full"):
        raise MappingError(f"unknown update strategy {strategy!r}")
    if theta is not None and not 0.0 <= theta <= 1.0:
        raise MappingError(f"theta must be in [0, 1], got {theta}")
    if rows_per_crossbar is None:
        # Imported here: the run context sits above the mapping layer.
        from repro.runtime.session import current_session

        rows_per_crossbar = current_session().config.crossbar_rows
    if strategy == "full":
        effective_theta = 1.0
    else:
        effective_theta = float(
            theta if theta is not None else adaptive_theta(graph)
        )

    def build() -> UpdatePlan:
        if strategy == "isu":
            mapping = interleaved_mapping(graph, rows_per_crossbar)
        else:
            mapping = index_mapping(graph.num_vertices, rows_per_crossbar)
        if mapping.num_vertices != graph.num_vertices:
            raise MappingError("mapping does not cover the graph")
        important = np.sort(top_degree_vertices(graph, effective_theta))
        for array in (mapping.crossbar_of, mapping.wordline_of, important):
            array.flags.writeable = False
        return UpdatePlan(
            mapping=mapping,
            important=important,
            theta=effective_theta,
            minor_period=minor_period,
        )

    return graph.cached(
        ("update-plan", strategy, rows_per_crossbar, effective_theta,
         minor_period),
        build,
    )
