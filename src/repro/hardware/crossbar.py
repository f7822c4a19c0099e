"""Functional and cost model of one ReRAM crossbar.

The crossbar is the unit everything else is built from.  Two concerns live
here:

* a **functional model** — the crossbar stores a value matrix and performs
  MVMs on it, optionally with the quantisation implied by 2-bit cells and
  8-bit ADCs, so tests can check numerical behaviour end-to-end;
* a **cost model** — every program/write/read is accounted in
  :class:`CrossbarStats` with the Table II latencies, which is what the
  pipeline simulator and the energy model consume.

Writes within one crossbar are serial (Section III-B of the paper); MVM
reads activate all wordlines at once but must stream full-precision inputs
through the 2-bit DACs over ``input_cycles`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig


@dataclass
class CrossbarStats:
    """Event counters and busy time for one crossbar (or a pool of them)."""

    mvm_reads: int = 0
    row_writes: int = 0
    busy_ns: float = 0.0

    def merge(self, other: "CrossbarStats") -> "CrossbarStats":
        """Accumulate another stats object into this one (returns self)."""
        self.mvm_reads += other.mvm_reads
        self.row_writes += other.row_writes
        self.busy_ns += other.busy_ns
        return self

    def copy(self) -> "CrossbarStats":
        """Shallow copy."""
        return CrossbarStats(self.mvm_reads, self.row_writes, self.busy_ns)


def quantize_symmetric(values: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric uniform quantisation to ``bits`` bits (for cell storage).

    Returns values snapped to the quantisation grid implied by the max
    absolute value; the all-zero case is returned unchanged.
    """
    if bits < 1:
        raise MappingError("quantisation bits must be >= 1")
    values = np.asarray(values, dtype=np.float32)
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    if max_abs == 0.0:
        return values.copy()
    levels = 2 ** (bits - 1) - 1
    scale = np.float32(max_abs / levels)
    if scale == 0.0:
        # Denormal inputs: the grid step underflows float32, so every
        # value already sits within half a step of the (zero-width) grid.
        return values.copy()
    return (np.round(values / scale) * scale).astype(np.float32)


class Crossbar:
    """One ReRAM crossbar: a ``rows x logical_cols`` programmable matrix.

    Parameters
    ----------
    config:
        Hardware configuration (geometry, latencies, precision).
    quantize:
        When ``True`` the functional results include weight quantisation to
        ``config.weight_bits`` (spread over ``cells_per_weight`` cells) —
        close to lossless, matching the paper's 16-bit fixed point.
    read_noise_sigma:
        Relative Gaussian noise on analog MVM outputs, modelling
        conductance variation and ADC error (NeuroSim's device-variation
        knob).  ``0.0`` (the default) is ideal analog compute.
    random_state:
        Seed for the noise stream (deterministic experiments).
    """

    def __init__(
        self,
        config: HardwareConfig = DEFAULT_CONFIG,
        quantize: bool = False,
        read_noise_sigma: float = 0.0,
        random_state: int = 0,
    ) -> None:
        if read_noise_sigma < 0:
            raise MappingError("read_noise_sigma must be >= 0")
        self._config = config
        self._quantize = quantize
        self._noise_sigma = read_noise_sigma
        self._rng = np.random.default_rng(random_state)
        self._values = np.zeros(
            (config.crossbar_rows, config.logical_cols), dtype=np.float32
        )
        self._programmed_rows = np.zeros(config.crossbar_rows, dtype=bool)
        self.stats = CrossbarStats()

    def _apply_read_noise(self, result: np.ndarray) -> np.ndarray:
        if self._noise_sigma == 0.0:
            return result
        noise = self._rng.normal(
            1.0, self._noise_sigma, size=result.shape,
        ).astype(np.float32)
        return result * noise

    @property
    def config(self) -> HardwareConfig:
        """The hardware configuration this crossbar was built with."""
        return self._config

    @property
    def rows(self) -> int:
        """Number of wordlines."""
        return self._config.crossbar_rows

    @property
    def cols(self) -> int:
        """Number of logical (value-level) columns."""
        return self._config.logical_cols

    @property
    def values(self) -> np.ndarray:
        """Currently programmed value matrix (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, matrix: np.ndarray) -> float:
        """Program a matrix into the top-left corner of the crossbar.

        Returns the write latency in ns.  Rows are written serially.
        """
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise MappingError("program expects a 2-D matrix")
        if matrix.shape[0] > self.rows or matrix.shape[1] > self.cols:
            raise MappingError(
                f"matrix {matrix.shape} exceeds crossbar "
                f"({self.rows}x{self.cols} values)"
            )
        return self.write_rows(np.arange(matrix.shape[0]), matrix)

    def write_rows(self, row_ids: np.ndarray, values: np.ndarray) -> float:
        """(Re)program specific rows; returns serial write latency in ns."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2 or values.shape[0] != row_ids.size:
            raise MappingError("values must be (len(row_ids), width)")
        if row_ids.size and (row_ids.min() < 0 or row_ids.max() >= self.rows):
            raise MappingError("row ids out of range")
        if values.shape[1] > self.cols:
            raise MappingError("row wider than crossbar")
        if self._quantize:
            values = quantize_symmetric(values, self._config.weight_bits)
        self._values[row_ids, :values.shape[1]] = values
        self._values[row_ids, values.shape[1]:] = 0.0
        self._programmed_rows[row_ids] = True
        latency = row_ids.size * self._config.row_write_latency_ns
        self.stats.row_writes += int(row_ids.size)
        self.stats.busy_ns += latency
        return latency

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def _matmul(self, padded: np.ndarray) -> np.ndarray:
        """Deterministic left-fold matmul kernel: ``padded @ values``.

        An input row gives the same output bit for bit whatever batch it
        streams in.  BLAS gemm/gemv calls cannot guarantee that (their
        accumulation order over the wordline axis changes with the batch
        size), so the product is accumulated wordline by wordline: each
        output row depends only on its own input row, making the kernel
        row-invariant by construction.
        """
        if padded.shape[0] == 1:
            # axis-0 ufunc reduce is a sequential left fold — identical
            # accumulation order to the wordline loop below, one call.
            return np.add.reduce(padded[0, :, None] * self._values, axis=0)[None]
        acc = padded[:, 0, None] * self._values[0]
        tmp = np.empty_like(acc)
        for k in range(1, self._values.shape[0]):
            np.multiply(padded[:, k, None], self._values[k], out=tmp)
            acc += tmp
        return acc

    def _count_reads(self, count: int) -> None:
        """Account ``count`` analog passes as ``count`` single passes
        would be: the event counter is arithmetic, but the float
        ``busy_ns`` fold is replayed add-by-add because the Table II
        latencies are not exactly representable — ``n * latency`` rounds
        differently than ``n`` sequential additions.
        """
        self.stats.mvm_reads += count
        latency = self._config.mvm_latency_ns
        busy = self.stats.busy_ns
        for _ in range(count):
            busy += latency
        self.stats.busy_ns = busy

    def mvm_batch(self, input_matrix: np.ndarray) -> np.ndarray:
        """``input @ values`` for each row of ``input_matrix`` (rows
        stream serially; one row is one matrix-vector multiply).

        A row has one entry per wordline (shorter rows are zero-padded).
        Each analog pass costs ``mvm_latency_ns`` regardless of input
        sparsity (all wordlines fire together); sparsity savings appear
        at the tiling level, where all-zero input segments skip whole
        crossbars.  Bit-identical to one call per row (the per-row oracle
        in ``tests/oracles/functional.py``): the matmul kernel is
        row-invariant and the noise for all rows is drawn in one batched
        call, which numpy fills in the same stream order as the
        equivalent sequence of per-row draws.
        """
        matrix = np.asarray(input_matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise MappingError("mvm_batch expects a 2-D input")
        if matrix.shape[1] > self.rows:
            raise MappingError("input rows wider than wordline count")
        if matrix.shape[0] == 0:
            return np.zeros((0, self.cols), dtype=np.float32)
        padded = np.pad(matrix, ((0, 0), (0, self.rows - matrix.shape[1])))
        result = self._matmul(padded)
        self._count_reads(matrix.shape[0])
        return self._apply_read_noise(result)

    def read_rows(self, row_ids: np.ndarray) -> np.ndarray:
        """Batched one-hot reads: the resident row per id, with read noise.

        Equivalent — output values, noise stream, and event counters — to
        firing one unit-input wordline per id through :meth:`mvm_batch` (a
        one-hot MVM returns the addressed row exactly; the noise for all
        ids is one batched draw, which matches the per-call sequence).
        """
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise MappingError("read_rows expects a 1-D id array")
        if ids.size == 0:
            return np.zeros((0, self.cols), dtype=np.float32)
        if ids.min() < 0 or ids.max() >= self.rows:
            raise MappingError("row ids out of range")
        result = self._values[ids]
        self._count_reads(int(ids.size))
        return self._apply_read_noise(result)

    def reset(self) -> None:
        """Clear programmed values and statistics."""
        self._values[:] = 0.0
        self._programmed_rows[:] = False
        self.stats = CrossbarStats()
