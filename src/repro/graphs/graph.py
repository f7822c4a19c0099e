"""Immutable CSR graph with vertex features and labels.

The GCN substrate, the mapping strategies, and the latency model all consume
graphs through this one class, so its invariants are load-bearing:

* adjacency is stored in CSR form (``indptr``/``indices``), undirected
  (every edge appears in both directions), each row sorted ascending
  without duplicates or self-loops;
* ``degrees`` is the out-degree per vertex (== in-degree for undirected);
* features are a dense ``(num_vertices, feature_dim)`` float32 matrix;
* labels, when present, are int64 class ids per vertex.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np
from scipy import sparse

from repro.errors import GraphError

T = TypeVar("T")


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort, without ``np.unique``'s hash table."""
    keys = np.sort(keys)
    # Prepending ``keys[0] - 1`` keeps the first key and handles empty input.
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


class Graph:
    """An undirected graph in CSR form with optional features and labels.

    Parameters
    ----------
    indptr:
        CSR row-pointer array of length ``num_vertices + 1``.
    indices:
        CSR column-index array; ``indices[indptr[v]:indptr[v+1]]`` are the
        neighbours of vertex ``v``.
    features:
        Optional ``(num_vertices, feature_dim)`` float matrix.
    labels:
        Optional ``(num_vertices,)`` integer class-id vector.
    name:
        Human-readable dataset name for reports.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise GraphError("indptr must be a 1-D array of length >= 1")
        if indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if indices.ndim != 1:
            raise GraphError("indices must be a 1-D array")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
                f"({indices.size})"
            )
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphError("indices contain out-of-range vertex ids")

        self._indptr = indptr
        self._indices = indices
        self._name = name

        if features is not None:
            features = np.asarray(features, dtype=np.float32)
            if features.ndim != 2 or features.shape[0] != num_vertices:
                raise GraphError(
                    f"features must be (num_vertices, d); got {features.shape} "
                    f"for {num_vertices} vertices"
                )
        self._features = features

        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (num_vertices,):
                raise GraphError(
                    f"labels must be ({num_vertices},); got {labels.shape}"
                )
        self._labels = labels

        self._degrees = np.diff(indptr).astype(np.int64)
        # Lazily built hot-path structures (the graph is immutable, so one
        # build amortises over every forward/backward/statistics call).
        self._lazy: dict = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Union[np.ndarray, Sequence[Tuple[int, int]]],
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "Graph":
        """Build an undirected graph from ``(u, v)`` integer pairs.

        ``edges`` is an ``(m, 2)`` integer array or a list/tuple of pairs.
        Self-loops are dropped, each edge is stored in both directions and
        duplicates collapse.  The CSR comes from one sort of packed
        ``src * n + dst`` keys, which is already ``(src, dst)`` order.
        """
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        edge_array = np.asarray(edges)
        if edge_array.size == 0:
            edge_array = np.empty((0, 2), dtype=np.int64)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        if not np.issubdtype(edge_array.dtype, np.integer):
            raise GraphError(
                f"edge endpoints must be integers, got dtype {edge_array.dtype}"
            )
        edge_array = edge_array.astype(np.int64, copy=False)
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            raise GraphError("edge endpoints out of range")

        src, dst = edge_array[:, 0], edge_array[:, 1]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        n = np.int64(num_vertices)
        src, dst = np.divmod(
            sorted_unique(np.concatenate([src * n + dst, dst * n + src])), n,
        )
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        return cls(indptr, dst, features=features, labels=labels, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Dataset name used in reports."""
        return self._name

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges (directed arc count // 2)."""
        return int(self._indices.size) // 2

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs stored in CSR (2x undirected edges)."""
        return int(self._indices.size)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer (read-only view)."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (read-only view)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree (read-only view)."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    @property
    def features(self) -> Optional[np.ndarray]:
        """Vertex feature matrix, or ``None``."""
        return self._features

    @property
    def labels(self) -> Optional[np.ndarray]:
        """Vertex labels, or ``None``."""
        return self._labels

    @property
    def feature_dim(self) -> int:
        """Feature dimensionality (0 when no features are attached)."""
        return 0 if self._features is None else int(self._features.shape[1])

    @property
    def num_classes(self) -> int:
        """Number of distinct labels (0 when no labels are attached)."""
        if self._labels is None or self._labels.size == 0:
            return 0
        return int(self._labels.max()) + 1

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbour ids of ``vertex`` (read-only view)."""
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(f"vertex {vertex} out of range")
        view = self._indices[self._indptr[vertex]:self._indptr[vertex + 1]]
        view = view.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Statistics consumed by GoPIM's mechanisms
    # ------------------------------------------------------------------
    @property
    def average_degree(self) -> float:
        """Mean vertex degree (0.0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0.0
        return float(self._degrees.mean())

    @property
    def density(self) -> float:
        """Edges / max possible edges, per the paper's definition."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return self.num_edges / (n * (n - 1) / 2)

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries of the dense adjacency matrix."""
        n = self.num_vertices
        if n == 0:
            return 1.0
        return 1.0 - self.num_arcs / (n * n)

    # ------------------------------------------------------------------
    # Cached structures for the linear-algebra hot path
    # ------------------------------------------------------------------
    def cached(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` for this immutable graph.

        The store is per instance and never pickled (``__getstate__``).
        """
        value = self._lazy.get(key)
        if value is None:
            value = self._lazy[key] = build()
        return value

    def _source_indices(self) -> np.ndarray:
        """``src[k]`` = source vertex of CSR arc ``k`` (cached)."""
        return self.cached("src", lambda: np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self._degrees,
        ))

    def _adjacency_csr(self) -> sparse.csr_matrix:
        """A scipy CSR adjacency with unit float32 weights (cached)."""
        n = self.num_vertices
        return self.cached("csr", lambda: sparse.csr_matrix(
            (np.ones(self._indices.size, dtype=np.float32), self._indices,
             self._indptr),
            shape=(n, n),
        ))

    def _mean_scale(self) -> np.ndarray:
        """Per-vertex ``1/degree`` (0 for isolated vertices), cached."""
        return self.cached("mean_scale", lambda: np.where(
            self._degrees > 0, 1.0 / np.maximum(self._degrees, 1), 0.0,
        ).astype(np.float32))

    def _inv_sqrt_degree(self) -> np.ndarray:
        """``(deg + 1)^-1/2`` for GCN normalisation, cached."""
        return self.cached("inv_sqrt", lambda: (
            1.0 / np.sqrt(self._degrees + 1.0)
        ).astype(np.float32))

    def content_fingerprint(self) -> str:
        """Stable hex digest of structure + features + labels (cached).

        Used as a content key by ``repro.perf`` so artifacts derived from
        equal graphs (latency tables, allocator inputs) can be memoised.
        """
        def build():
            hasher = hashlib.sha256()
            hasher.update(self._indptr.tobytes())
            hasher.update(self._indices.tobytes())
            for extra in (self._features, self._labels):
                hasher.update(b"|")
                if extra is not None:
                    hasher.update(np.ascontiguousarray(extra).tobytes())
            return hasher.hexdigest()

        return self.cached("fingerprint", build)

    # ------------------------------------------------------------------
    # Linear algebra used by the GCN substrate
    # ------------------------------------------------------------------
    def _check_rows(self, matrix: np.ndarray) -> None:
        if matrix.shape[0] != self.num_vertices:
            raise GraphError(
                f"matrix has {matrix.shape[0]} rows, graph has "
                f"{self.num_vertices} vertices"
            )

    def adjacency_matmul(self, matrix: np.ndarray) -> np.ndarray:
        """Compute ``A @ matrix`` with the (unnormalised) adjacency.

        Inputs are normalised to float32 once at this boundary and every
        intermediate stays float32 — the substrate's uniform dtype.  The
        sum itself is a scipy CSR SpMM; never densifies A.
        """
        matrix = np.asarray(matrix, dtype=np.float32)
        self._check_rows(matrix)
        return self._adjacency_csr() @ matrix

    def mean_adjacency_matmul(self, matrix: np.ndarray) -> np.ndarray:
        """Compute ``D^-1 A @ matrix`` (mean aggregation, GraphSAGE-style).

        Isolated vertices (degree 0) aggregate to zero rows.
        """
        sums = self.adjacency_matmul(matrix)
        scale = self._mean_scale()
        if sums.ndim == 1:
            return sums * scale
        return sums * scale[:, None]

    def normalized_adjacency_matmul(self, matrix: np.ndarray) -> np.ndarray:
        """Compute ``D^-1/2 (A + I) D^-1/2 @ matrix`` (GCN propagation).

        The split scale -> SpMM -> add -> scale chain, whose accumulation
        order the byte-identity contract pins.
        """
        matrix = np.asarray(matrix, dtype=np.float32)
        self._check_rows(matrix)
        inv_sqrt = self._inv_sqrt_degree()
        if matrix.ndim == 1:
            scaled = matrix * inv_sqrt
            return (self.adjacency_matmul(scaled) + scaled) * inv_sqrt
        scaled = matrix * inv_sqrt[:, None]
        propagated = self.adjacency_matmul(scaled) + scaled
        return propagated * inv_sqrt[:, None]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def edge_list(self) -> np.ndarray:
        """Return the unique undirected edge list as an ``(m, 2)`` array."""
        src = self._source_indices()
        dst = self._indices
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def arc_sources(self) -> np.ndarray:
        """Source vertex of each CSR arc (read-only view, cached)."""
        view = self._source_indices().view()
        view.flags.writeable = False
        return view

    def filter_arcs(self, keep: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Subgraph keeping exactly the CSR arcs where ``keep`` is True.

        The arc order of this graph (sorted by source, then target, no
        duplicates) is preserved, so the result equals rebuilding from
        the corresponding edge list via :meth:`from_edges` — without
        re-sorting.  ``keep`` must be symmetric (arc ``(u, v)`` kept iff
        ``(v, u)`` is) for the result to remain undirected; the
        degree-based sparsifiers' masks are.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.num_arcs,):
            raise GraphError(
                f"keep mask must have one entry per arc "
                f"({self.num_arcs}); got shape {keep.shape}"
            )
        counts = np.bincount(
            self._source_indices()[keep], minlength=self.num_vertices,
        )
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Graph(
            indptr, self._indices[keep], features=self._features,
            labels=self._labels, name=name or self._name,
        )

    def __getstate__(self) -> dict:
        # Lazy hot-path structures (scipy CSR, repeat indices, ...) are
        # rebuildable and can dwarf the graph itself: never pickle them.
        state = self.__dict__.copy()
        state["_lazy"] = {}
        return state

    def __repr__(self) -> str:
        return (
            f"Graph(name={self._name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, avg_degree={self.average_degree:.1f}, "
            f"feature_dim={self.feature_dim})"
        )
