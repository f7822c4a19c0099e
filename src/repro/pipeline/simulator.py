"""Event-driven micro-batch pipeline simulator (Section V-B, Fig. 10).

The simulator takes a matrix of per-(stage, micro-batch) execution times
and schedules them under one of three regimes:

* ``SERIAL`` — no overlap at all: every (stage, micro-batch) runs alone
  (the paper's *Serial* baseline);
* ``INTRA_BATCH`` — micro-batches within one batch pipeline across stages,
  but the pipeline drains at batch boundaries (SlimGNN-like / ReGraphX);
* ``INTRA_INTER`` — full pipelining with bounded staleness across batches
  (GoPIM's intra- + inter-batch parallelism): no drain.

Pipelined scheduling follows the paper's constraints exactly:

* Eq. (3): a stage's j-th micro-batch cannot start before that stage
  finished micro-batch j-1 (one crossbar pool per stage);
* Eq. (4): it also cannot start before the previous stage finished the
  same micro-batch (data dependency).

For uniform stage times and ``INTRA_INTER`` the resulting makespan equals
the closed form of Eq. (6): ``sum_i T_i + (B-1) * max_i T_i`` — a property
the test suite checks against the closed form kept in
``tests/oracles/pipeline.py``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import PipelineError
from repro.perf import profile


class ScheduleMode(enum.Enum):
    """Pipelining regime."""

    SERIAL = "serial"
    INTRA_BATCH = "intra-batch"
    INTRA_INTER = "intra+inter-batch"


@dataclass
class PipelineResult:
    """Outcome of one pipeline simulation.

    ``starts``/``ends`` are ``(num_stages, num_microbatches)`` matrices of
    absolute times; ``stage_busy_ns`` sums each stage row, once per
    result (the idle fractions and the energy accounting all read it).
    """

    starts: np.ndarray
    ends: np.ndarray
    mode: ScheduleMode

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages."""
        return self.starts.shape[0]

    @property
    def num_microbatches(self) -> int:
        """Number of micro-batches."""
        return self.starts.shape[1]

    @property
    def total_time_ns(self) -> float:
        """Makespan of the whole schedule."""
        return float(self.ends.max()) if self.ends.size else 0.0

    @functools.cached_property
    def stage_busy_ns(self) -> np.ndarray:
        """Total busy time per stage (read-only: every reader shares it)."""
        busy = (self.ends - self.starts).sum(axis=1)
        busy.flags.writeable = False
        return busy

    def idle_fraction(self, stage_index: int) -> float:
        """Idle share of the makespan for one stage's crossbar pool.

        This is the quantity Fig. 4 and Fig. 15 plot (XBSi idle %).
        """
        total = self.total_time_ns
        if total <= 0:
            return 0.0
        busy = float(self.stage_busy_ns[stage_index])
        return max(0.0, 1.0 - busy / total)

    def idle_fractions(self) -> np.ndarray:
        """Idle fraction per stage (:meth:`idle_fraction` for each)."""
        total = self.total_time_ns
        if total <= 0:
            return np.zeros(self.num_stages)
        return np.maximum(0.0, 1.0 - self.stage_busy_ns / total)


def _validate_times(times_ns: np.ndarray) -> np.ndarray:
    times = np.asarray(times_ns, dtype=np.float64)
    if times.ndim != 2:
        raise PipelineError("times_ns must be (num_stages, num_microbatches)")
    if np.any(times < 0):
        raise PipelineError("stage times must be non-negative")
    num_stages, num_mbs = times.shape
    if num_stages == 0 or num_mbs == 0:
        raise PipelineError("need at least one stage and one micro-batch")
    return times


@profile.phase(profile.PHASE_TIMING)
def simulate_pipeline(
    times_ns: np.ndarray,
    mode: ScheduleMode = ScheduleMode.INTRA_INTER,
    microbatches_per_batch: Optional[int] = None,
) -> PipelineResult:
    """Schedule a ``(num_stages, num_microbatches)`` time matrix.

    Parameters
    ----------
    times_ns:
        ``times_ns[i, j]`` is the execution time of stage ``i`` on
        micro-batch ``j`` (with whatever replica speedup already applied).
    mode:
        Pipelining regime.
    microbatches_per_batch:
        Batch size for ``INTRA_BATCH`` drains; defaults to all
        micro-batches forming one batch (no drain, but Eq. 3/4 still
        serialise per-stage and per-micro-batch).

    The Eq. 3/4 recurrence is evaluated one *stage row* at a time as a
    running-maximum scan over micro-batches: with ``c[j]`` the external
    constraint (drain / previous stage) and ``pre[j]`` the exclusive
    prefix sum of the row's times, ``end[j] - cum[j]`` equals
    ``max.accumulate(c - pre)`` — so the only Python loop left is over
    stages.  Batches are scheduled *relative to their own drain time*
    (the recurrence is translation-invariant in a uniform start
    constraint), so all batches scan simultaneously and the cumulative
    drains are applied afterwards as per-batch offsets.
    ``tests/oracles/pipeline.py`` keeps the original double-loop form as
    the equivalence oracle.
    """
    times = _validate_times(times_ns)
    num_stages, num_mbs = times.shape

    if mode is ScheduleMode.SERIAL:
        # Micro-batch-major sequential execution: mb 0 through all stages,
        # then mb 1, ... (order does not change the makespan).
        ends = np.cumsum(times.T.reshape(-1)).reshape(num_mbs, num_stages).T
        starts = ends - times
        return PipelineResult(starts=starts, ends=ends, mode=mode)

    batch = num_mbs if microbatches_per_batch is None else microbatches_per_batch
    if batch < 1:
        raise PipelineError("microbatches_per_batch must be >= 1")
    if mode is not ScheduleMode.INTRA_BATCH:
        batch = num_mbs  # one batch, no drain

    num_batches = -(-num_mbs // batch)
    padded = num_batches * batch
    if padded == num_mbs:
        grid = times
    else:
        # Zero-time padding never extends a batch's schedule, so the
        # drains (and the real columns) are unaffected.
        grid = np.zeros((num_stages, padded))
        grid[:, :num_mbs] = times
    # blocks[k, i, j]: stage i, micro-batch j of batch k.
    blocks = grid.reshape(num_stages, num_batches, batch).transpose(1, 0, 2)
    cum = np.cumsum(blocks, axis=2)
    pre = cum - blocks

    # Every batch is scheduled relative to its own drain time: within a
    # batch all ends stay >= the drain, so the Eq. 3/4 recurrence just
    # shifts with it and every batch can be scanned simultaneously.
    rel_starts = np.empty_like(blocks)
    rel_ends = np.empty_like(blocks)
    prev_row_ends = np.zeros((num_batches, batch))
    for stage in range(num_stages):
        # Eq. (4) constraint, then Eq. (3) via the running-max scan.
        offset = np.maximum.accumulate(prev_row_ends - pre[:, stage], axis=1)
        row_starts = offset + pre[:, stage]
        rel_starts[:, stage] = row_starts
        rel_ends[:, stage] = row_starts + blocks[:, stage]
        prev_row_ends = rel_ends[:, stage]

    # The previous batch's max end also dominates every earlier batch
    # (drains are monotone), so Eq. (3)'s cross-batch term is subsumed
    # by the drain and the offsets accumulate batch by batch.
    batch_spans = rel_ends.reshape(num_batches, -1).max(axis=1)
    drains = np.concatenate(([0.0], np.cumsum(batch_spans[:-1])))
    rel_starts += drains[:, None, None]
    rel_ends += drains[:, None, None]
    starts = rel_starts.transpose(1, 0, 2).reshape(num_stages, padded)
    ends = rel_ends.transpose(1, 0, 2).reshape(num_stages, padded)
    return PipelineResult(
        starts=starts[:, :num_mbs].copy(),
        ends=ends[:, :num_mbs].copy(),
        mode=mode,
    )
