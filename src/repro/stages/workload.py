"""Workload: one (graph, GCN model, micro-batch size) training job.

A :class:`Workload` binds everything the timing model, allocator, and
predictor need about a job: the graph (degrees, size, sparsity), the layer
dimensions from Table IV, and the micro-batch partition.  Micro-batches
are contiguous vertex-id ranges — the partition the index-based mapping
baselines use — which is what makes per-micro-batch degree sums skewed on
real (id/degree-correlated) graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Tuple, TypeVar,
)

import numpy as np

from repro.errors import PipelineError
from repro.graphs.datasets import DatasetSpec, get_spec, load_dataset
from repro.graphs.graph import Graph
from repro.stages.stage import StageSpec, build_stage_chain

DEFAULT_MICRO_BATCH = 64

T = TypeVar("T")


@dataclass
class Workload:
    """A GCN training job over one graph.

    Attributes
    ----------
    graph:
        The input graph (features optional for timing-only studies).
    layer_dims:
        Per-layer ``(d_in, d_out)`` pairs.
    micro_batch:
        Vertices per micro-batch (the paper's default is 64).
    name:
        Report label; defaults to the graph's name.

    The stage chain, the degree prefix and the micro-batch geometry are
    built once at construction and are read-only; :meth:`cached` keeps
    what later layers derive from the job alone (SlimGNN-like's pruned
    workloads, the predictor's feature rows).  None of them is pickled:
    an unpickled workload rebuilds the chain and geometry, and its memo
    store starts empty.  The fields are not meant to change after
    construction.
    """

    graph: Graph
    layer_dims: List[Tuple[int, int]]
    micro_batch: int = DEFAULT_MICRO_BATCH
    name: str = ""

    def __post_init__(self) -> None:
        if self.micro_batch < 1:
            raise PipelineError("micro_batch must be >= 1")
        if not self.layer_dims:
            raise PipelineError("need at least one layer")
        if not self.name:
            self.name = self.graph.name
        self._build_fixed()

    def _build_fixed(self) -> None:
        """The degree prefix, micro-batch geometry and stage chain, built
        once, read-only, and an empty memo store.

        Every pricing path (timing tables, trace compile and replay)
        reads these; none of them is pickled (see ``__getstate__``).
        """
        prefix = np.concatenate(
            [[0], np.cumsum(self.graph.degrees, dtype=np.int64)]
        )
        bounds = np.minimum(
            np.arange(self.num_microbatches + 1, dtype=np.int64)
            * self.micro_batch,
            self.num_vertices,
        )
        sizes = np.diff(bounds)
        edges = np.diff(prefix[bounds])
        for array in (prefix, bounds, sizes, edges):
            array.flags.writeable = False
        self._degree_prefix = prefix
        self._geometry = (bounds, sizes, edges)
        self._stages = tuple(
            build_stage_chain(self.num_vertices, self.layer_dims)
        )
        self._lazy: Dict[Hashable, Any] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_degree_prefix", "_geometry", "_stages", "_lazy"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_fixed()

    def cached(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` for this workload.

        Like :meth:`Graph.cached <repro.graphs.graph.Graph.cached>`, the
        store is per instance and never pickled.  A value must not refer
        back to this workload: the memo would then be a reference cycle,
        and a dropped workload would wait for a full garbage collection
        (so timing models, which hold their workload, are never kept
        here).
        """
        value = self._lazy.get(key)
        if value is None:
            value = self._lazy[key] = build()
        return value

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Graph size N."""
        return self.graph.num_vertices

    @property
    def num_layers(self) -> int:
        """GCN depth L."""
        return len(self.layer_dims)

    @property
    def num_stages(self) -> int:
        """4L training stages."""
        return 4 * self.num_layers

    @property
    def num_microbatches(self) -> int:
        """Micro-batches per epoch (contiguous vertex ranges)."""
        return -(-self.num_vertices // self.micro_batch)

    def stage_chain(self) -> Tuple[StageSpec, ...]:
        """The 4L stage chain for this workload (built once, shared)."""
        return self._stages

    # ------------------------------------------------------------------
    def microbatch_boundaries(self) -> np.ndarray:
        """Vertex-id boundaries of every micro-batch: length ``num_mbs + 1``."""
        return self._geometry[0]

    def microbatch_sizes(self) -> np.ndarray:
        """Vertices per micro-batch for all micro-batches at once."""
        return self._geometry[1]

    def microbatch_edge_counts(self) -> np.ndarray:
        """Degree sums per micro-batch for all micro-batches at once."""
        return self._geometry[2]

    def average_microbatch_edges(self) -> float:
        """Mean degree-sum per micro-batch."""
        return float(self._degree_prefix[-1]) / self.num_microbatches


def workload_from_dataset(
    name: str,
    random_state=0,
    micro_batch: int = DEFAULT_MICRO_BATCH,
    scale: float = 1.0,
    graph: Optional[Graph] = None,
) -> Workload:
    """Build the Table IV workload for a paper dataset.

    ``graph`` may be supplied to reuse an already-generated instance
    (e.g. across experiments); otherwise :func:`load_dataset` runs.
    """
    spec: DatasetSpec = get_spec(name)
    if graph is None:
        graph = load_dataset(name, random_state=random_state, scale=scale)
    dims: List[Tuple[int, int]] = []
    d_in = spec.in_channels
    for layer in range(spec.num_layers):
        d_out = (
            spec.out_channels if layer == spec.num_layers - 1
            else spec.hidden_channels
        )
        dims.append((d_in, d_out))
        d_in = d_out
    return Workload(
        graph=graph, layer_dims=dims, micro_batch=micro_batch,
        name=spec.name,
    )
