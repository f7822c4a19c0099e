"""Arrival processes for the serving simulator.

Every process is generated in two steps:

1. a **unit pattern** — a float64 inter-arrival sequence with mean
   exactly 1.0 (``unit_poisson`` / ``unit_mmpp`` / ``unit_trace``),
   drawn from a named Session RNG stream;
2. a **rate scaling** — :func:`arrival_times_ns` divides the pattern by
   the offered rate and quantises to integer-nanosecond timestamps.

Separating pattern from rate means a load sweep reuses one pattern at
different time compressions: batch memberships and service times are
identical across the sweep and only the dispatch spacing changes, so
queueing-delay percentiles are monotone in load by construction rather
than up to sampling noise — the invariant the queueing tests assert.
(End-to-end latency adds the batch-formation wait, which *shrinks* with
load; its curve is U-shaped with a blow-up at saturation.)

All downstream queueing arithmetic is integer nanoseconds (see
:mod:`repro.serving.engine`); this module is the only place floats
touch the timeline, and they leave it through one ``rint``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExperimentError

#: Default high-state/low-state rate ratio of the bursty MMPP.
DEFAULT_BURSTINESS = 8.0

#: Default expected arrivals per MMPP phase at unit rate.
DEFAULT_PHASE_LENGTH = 400.0

#: Longest arrival timeline in nanoseconds (about 146 years): half the
#: int64 range, which leaves headroom for the dispatch and completion
#: times built on top of it and for rounding in the float check.
_MAX_TIMELINE_NS = 2.0 ** 62

#: A built-in diurnal-ish trace pattern (relative inter-arrival
#: weights): calm - ramp - burst - cooldown, replayed cyclically.
DEFAULT_TRACE = (
    3.0, 2.5, 2.0, 1.5, 1.0, 0.6, 0.35, 0.25,
    0.2, 0.25, 0.35, 0.6, 1.0, 1.5, 2.0, 2.5,
)


def _validate_count(num_requests: int) -> None:
    if num_requests < 1:
        raise ExperimentError(
            f"num_requests must be >= 1, got {num_requests}"
        )


def unit_poisson(num_requests: int, rng: np.random.Generator) -> np.ndarray:
    """Exponential inter-arrivals with unit mean (a rate-1 Poisson process)."""
    _validate_count(num_requests)
    return rng.exponential(1.0, num_requests)


def unit_mmpp(
    num_requests: int,
    rng: np.random.Generator,
    burstiness: float = DEFAULT_BURSTINESS,
    phase_length: float = DEFAULT_PHASE_LENGTH,
) -> np.ndarray:
    """Bursty inter-arrivals from a two-state MMPP, normalised to unit mean.

    The modulating chain alternates between a low-rate and a high-rate
    Poisson phase with exponentially distributed sojourns; the two rates
    are ``2/(1+burstiness)`` and ``burstiness`` times that, so the
    stationary mean rate is 1.  ``phase_length`` is the expected number
    of arrivals per phase at unit rate — large enough that the process
    is visibly bursty at experiment scales, small enough that a run
    spans many phases.  Phase boundaries regenerate the within-phase
    exponential clock (a standard simplification; the burst structure,
    which is what the tail-latency experiments probe, is unaffected).
    The final normalisation pins the empirical mean to exactly 1.0 so
    rate scaling is exact.
    """
    _validate_count(num_requests)
    # ``not ... <`` also rejects NaN.
    if not 1.0 < burstiness < np.inf:
        raise ExperimentError(
            "burstiness must be > 1 and finite for a bursty process, "
            f"got {burstiness}"
        )
    if not 0 < phase_length < np.inf:
        raise ExperimentError(
            f"phase_length must be positive and finite, got {phase_length}"
        )
    rate_low = 2.0 / (1.0 + burstiness)
    rate_high = burstiness * rate_low
    state = int(rng.integers(2))
    # Each phase's gaps go straight into one preallocated array, as
    # ``np.diff`` of the whole timeline would give them (the first gap
    # is measured from 0), so no request-length timeline is ever held.
    inter = np.empty(num_requests)
    collected = 0
    clock = last = 0.0
    while collected < num_requests:
        rate = rate_high if state else rate_low
        duration = rng.exponential(phase_length)
        # Draw a slab of exponentials covering the phase with headroom;
        # top up in the (rare) case the slab falls short.
        expected = rate * duration
        gaps = rng.exponential(1.0 / rate, int(expected * 1.3) + 16)
        offsets = np.cumsum(gaps)
        while offsets.size and offsets[-1] < duration:
            more = rng.exponential(1.0 / rate, max(16, offsets.size // 4))
            offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(more)])
        inside = offsets[offsets < duration][:num_requests - collected]
        if inside.size:
            stamps = clock + inside
            end = collected + stamps.size
            inter[collected] = stamps[0] - last
            np.subtract(stamps[1:], stamps[:-1], out=inter[collected + 1:end])
            last = stamps[-1]
            collected = end
        clock += duration
        state = 1 - state
    inter /= inter.mean()
    return inter


def unit_trace(
    num_requests: int,
    trace=DEFAULT_TRACE,
) -> np.ndarray:
    """Replay a recorded inter-arrival pattern, normalised to unit mean.

    ``trace`` is any positive sequence of relative inter-arrival gaps;
    it is tiled cyclically to ``num_requests`` entries and rescaled so
    the mean gap is exactly 1.0.  Deterministic — trace replay uses no
    RNG stream at all.
    """
    _validate_count(num_requests)
    pattern = np.asarray(trace, dtype=np.float64)
    if pattern.ndim != 1 or pattern.size == 0:
        raise ExperimentError("trace must be a non-empty 1-D sequence")
    if np.any(pattern <= 0):
        raise ExperimentError("trace gaps must be positive")
    reps = -(-num_requests // pattern.size)
    inter = np.tile(pattern, reps)[:num_requests]
    return inter / inter.mean()


def arrival_times_ns(
    unit_inter: np.ndarray,
    rate_rps: float,
) -> np.ndarray:
    """Absolute int64 arrival timestamps for a unit pattern at a rate.

    Each unit gap is divided by ``rate_rps`` (requests per second),
    quantised to whole nanoseconds, and summed — per-gap quantisation
    keeps the sequence non-decreasing, and integer accumulation keeps
    every downstream engine comparison exact.  A rate that is not
    positive and finite, a non-finite or negative gap, or a timeline
    longer than 2**62 ns (about 146 years), raises
    :class:`~repro.errors.ExperimentError` instead of wrapping to
    negative timestamps.
    """
    # ``not ... <`` also rejects a NaN rate.
    if not 0 < rate_rps < np.inf:
        raise ExperimentError(
            f"rate_rps must be positive and finite, got {rate_rps}"
        )
    inter = np.asarray(unit_inter, dtype=np.float64)
    if inter.ndim != 1 or inter.size == 0:
        raise ExperimentError("unit_inter must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(inter)):
        raise ExperimentError("inter-arrival gaps must be finite")
    if np.any(inter < 0):
        raise ExperimentError("inter-arrival gaps must be non-negative")
    gaps = inter * (1e9 / rate_rps)
    np.rint(gaps, out=gaps)
    span_ns = gaps.sum()
    # ``not <`` also rejects the NaN or inf span of an overflowing scale.
    if not span_ns < _MAX_TIMELINE_NS:
        raise ExperimentError(
            f"arrivals at {rate_rps:g} req/s span {span_ns:.3g} ns, "
            f"beyond the {_MAX_TIMELINE_NS:.3g} ns an int64 timeline allows"
        )
    stamps = gaps.astype(np.int64)
    return np.cumsum(stamps, out=stamps)
