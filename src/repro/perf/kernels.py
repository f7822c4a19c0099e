"""Two-tier numerics: kernel strategy registry + PyGim-style autotuner.

The reproduction's default contract is *byte identity*: every fast path
replays its reference's floating-point accumulation order bit-for-bit,
which pins the hot kernels (CSR SpMM, segment folds, gather-scatter) to
one implementation each.  PyGim's CPU/PIM kernels and MNSIM-2.0's
behaviour-level accuracy knob both argue exactness should be a
*selectable tier*, so this module adds one:

* ``numerics_mode()`` is a process-wide mode switch — ``"exact"`` (the
  default, nothing changes anywhere) or ``"fast"`` (hot call sites may
  reorder accumulations, skip dtype promotion, and pick between several
  interchangeable kernel implementations).  Sessions activate it from
  their :class:`~repro.runtime.spec.RunSpec` via the :func:`numerics`
  context manager; correctness in fast mode is a *relative-error budget*
  per kernel (:data:`ERROR_BUDGETS`), not bit identity.
* ``register_strategy`` / ``strategies`` hold the named interchangeable
  implementations of each kernel.
* :class:`KernelTuner` times candidate strategies once per
  ``(kernel, shape-class)`` with ``time.perf_counter`` (no RNG is ever
  touched), persists the winner through the content-keyed
  :class:`~repro.perf.cache.ArtifactCache` — so a fresh Session replays
  the same choice deterministically from the disk tier — and memoises
  the decision in-process so steady-state dispatch is one dict lookup.

Call sites use :func:`run_tuned`: on a cold cache every candidate runs
(and is timed) once and the winner's result is returned; afterwards only
the winner runs.  Candidates must therefore be pure functions of their
inputs — every strategy registered here is.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.perf.cache import ArtifactCache, cache_key, get_cache

NUMERICS_MODES = ("exact", "fast")

#: Documented per-kernel relative-error budgets of the fast tier, each
#: asserted against the exact path by tests/perf/test_fast_numerics.py
#: (MODEL.md section 11).  Budgets are relative to the exact result's
#: max magnitude (plus a tiny absolute floor for zero-crossing entries).
ERROR_BUDGETS: Dict[str, float] = {
    # Fused-normalised / dense SpMM vs split scale->SpMM->add->scale.
    "spmm_normalized": 1e-5,
    # reduceat segment sum vs the round-by-round left fold (float32).
    "segment_fold": 1e-4,
    # float32 gather-scatter gradient vs the float64 CSR scatter.
    "edge_scatter": 1e-4,
    # float32 sigmoid + vectorised BCE reduction vs the float64 path.
    "link_bce": 1e-4,
    # float32 softmax cross-entropy vs the float64 per-replica reduce.
    "cross_entropy": 1e-4,
}

_mode: str = "exact"


def _check_mode(mode: str) -> str:
    if mode not in NUMERICS_MODES:
        raise ConfigError(
            f"numerics must be one of {NUMERICS_MODES}, got {mode!r}"
        )
    return mode


def numerics_mode() -> str:
    """The process-wide numerics mode (``"exact"`` or ``"fast"``)."""
    return _mode


def fast_mode() -> bool:
    """Whether the relaxed-identity fast tier is active."""
    return _mode == "fast"


def set_numerics_mode(mode: str) -> str:
    """Set the process-wide mode; returns the previous one."""
    global _mode
    previous = _mode
    _mode = _check_mode(mode)
    return previous


@contextmanager
def numerics(mode: str):
    """Scope the numerics mode (the experiment driver's entry point)."""
    previous = set_numerics_mode(mode)
    try:
        yield
    finally:
        set_numerics_mode(previous)


# ----------------------------------------------------------------------
# Strategy registry
# ----------------------------------------------------------------------
_registry: Dict[str, Dict[str, Callable]] = {}


def register_strategy(kernel: str, name: str) -> Callable:
    """Decorator registering one named implementation of ``kernel``."""

    def decorate(fn: Callable) -> Callable:
        _registry.setdefault(kernel, {})[name] = fn
        return fn

    return decorate


def strategies(kernel: str) -> Dict[str, Callable]:
    """The registered implementations of ``kernel`` (name -> callable)."""
    return dict(_registry.get(kernel, {}))


def shape_class(*dims: float) -> Tuple[int, ...]:
    """Coarse log2 bucket of a kernel's shape, the autotuner's key.

    Workloads whose dimensions agree to within a factor of two share a
    tuning decision; exact sizes would re-tune on every epoch-dependent
    edge count for no benefit.
    """
    return tuple(
        int(math.log2(dim)) if dim >= 1 else -1 for dim in dims
    )


# ----------------------------------------------------------------------
# Autotuner
# ----------------------------------------------------------------------
class KernelTuner:
    """Times candidate strategies once per (kernel, shape-class).

    Winners persist through the artifact cache under the
    ``"kernel_tuner"`` namespace, so with a ``REPRO_CACHE_DIR`` disk
    tier a fresh process replays prior decisions without re-timing; a
    cold cache re-tunes from scratch.  Timing uses ``perf_counter``
    only — tuning never draws from any RNG stream.
    """

    NAMESPACE = "kernel_tuner"

    def __init__(self, cache: Optional[ArtifactCache] = None) -> None:
        self._cache = cache if cache is not None else get_cache()
        self._memo: Dict[Tuple[str, Tuple[int, ...]], str] = {}

    # ------------------------------------------------------------------
    def _time_candidates(
        self,
        candidates: Mapping[str, Callable[[], Any]],
        results: Dict[str, Any],
    ) -> Dict[str, Any]:
        timings: Dict[str, float] = {}
        for name, thunk in candidates.items():
            best = math.inf
            for _ in range(2):  # warmup + timed; keep the min
                start = time.perf_counter()
                results[name] = thunk()
                best = min(best, time.perf_counter() - start)
            timings[name] = best
        winner = min(timings, key=lambda name: (timings[name], name))
        return {"winner": winner, "timings": timings}

    def pick(
        self,
        kernel: str,
        shape_key: Tuple[int, ...],
        candidates: Mapping[str, Callable[[], Any]],
    ) -> Tuple[str, Optional[Any]]:
        """The winning strategy name, tuning on first contact.

        Returns ``(winner, result)`` where ``result`` is the winner's
        output when this call had to run the candidates (cold tune) and
        ``None`` when the decision was already known — the caller runs
        the winner itself in that case.
        """
        memo_key = (kernel, shape_key)
        winner = self._memo.get(memo_key)
        if winner is not None and winner in candidates:
            return winner, None
        key = cache_key(
            "kernel-tuner", kernel, shape_key, tuple(sorted(candidates)),
        )
        results: Dict[str, Any] = {}
        record = self._cache.get_or_compute(
            self.NAMESPACE, key,
            lambda: self._time_candidates(candidates, results),
        )
        winner = record.get("winner") if isinstance(record, dict) else None
        if winner not in candidates:
            # Stale/corrupt record (e.g. a strategy was renamed): re-tune
            # locally rather than failing; the fresh record replaces the
            # memo for this process.
            record = self._time_candidates(candidates, results)
            winner = record["winner"]
        self._memo[memo_key] = winner
        return winner, results.get(winner)

    def run(
        self,
        kernel: str,
        shape_key: Tuple[int, ...],
        candidates: Mapping[str, Callable[[], Any]],
    ) -> Any:
        """Run the tuned strategy for this shape (tuning on first call)."""
        winner, result = self.pick(kernel, shape_key, candidates)
        if result is not None:
            return result
        return candidates[winner]()

    def decisions(self) -> Dict[Tuple[str, Tuple[int, ...]], str]:
        """The in-process decisions made so far (kernel, shape) -> name."""
        return dict(self._memo)


_tuner: Optional[KernelTuner] = None


def tuner() -> KernelTuner:
    """The process-wide tuner (backed by the default artifact cache)."""
    global _tuner
    if _tuner is None:
        _tuner = KernelTuner()
    return _tuner


def set_tuner(instance: Optional[KernelTuner]) -> Optional[KernelTuner]:
    """Replace the process tuner (tests); returns the previous one."""
    global _tuner
    previous = _tuner
    _tuner = instance
    return previous


def run_tuned(
    kernel: str,
    shape_key: Tuple[int, ...],
    candidates: Mapping[str, Callable[[], Any]],
) -> Any:
    """Module-level shorthand for ``tuner().run(...)``."""
    return tuner().run(kernel, shape_key, candidates)
