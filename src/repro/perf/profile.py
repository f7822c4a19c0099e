"""Always-on phase-attributed wall-time profiling.

Every perf PR so far attacked a hot path it could *see*; this module makes
the remaining time visible.  A lightweight timer attributes wall time to
named **phases** — dataset generation, GCN training, predictor fit,
allocation search, timing model, functional sim — so the experiment
driver can report where a sweep's seconds actually go
(``BENCH_phases.json``), and regressions show up as a phase growing, not
as an anonymous slowdown.

Design points:

* **Exclusive attribution.**  Phases nest (predictor-sample generation
  calls the timing model; the co-simulator calls the trainer).  Time is
  charged to the *innermost* active phase only, so phase totals never
  double-count and sum to at most the covered wall time.  A phase nested
  inside itself (the exhaustive allocator refining via the greedy) simply
  keeps charging the same bucket.
* **Negligible overhead.**  Entering/leaving a phase is two
  ``perf_counter`` calls and a couple of dict operations under a lock —
  about a microsecond — so the timer stays on everywhere, including the
  paper-fidelity sweeps.
* **Thread/fork safety.**  The frame stack is thread-local (each thread
  attributes its own time); the accumulator lock is re-created in forked
  children (``os.register_at_fork``) so a fork mid-update cannot
  deadlock a sweep worker.  Workers inherit the parent's totals — the
  sweep driver snapshots before/after each experiment and ships only the
  delta back, so inherited history cancels out.

Usage::

    from repro.perf import profile

    with profile.phase(profile.PHASE_TRAINING):
        ...                       # context-manager form

    @profile.phase(profile.PHASE_ALLOCATION)
    def greedy_allocation(...):   # decorator form
        ...

    before = profile.snapshot()
    run_experiment()
    spent = profile.since(before)  # {phase: {"seconds": s, "calls": n}}
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Phase taxonomy (documented in docs/MODEL.md).  Keep names stable:
# BENCH_phases.json consumers and the CI regression guard key on them.
# ----------------------------------------------------------------------
PHASE_DATASET = "dataset_generation"     # graph synthesis + predictor samples
PHASE_TRAINING = "gcn_training"          # split-harness loop (train_with_split)
PHASE_TRAINING_BATCHED = "gcn_training_batched"  # node/link trainer epochs
PHASE_PREDICTOR = "predictor_fit"        # regressor fitting (all families)
PHASE_ALLOCATION = "allocation_search"   # greedy / baseline / exhaustive
PHASE_TIMING = "timing_model"            # analytic stage times + pipeline sim
PHASE_FUNCTIONAL = "functional_sim"      # on-crossbar functional engine
PHASE_MAPPING = "vertex_mapping"         # vertex maps + update plans
PHASE_ACCELERATOR = "accelerator_sim"    # accelerator run glue: stage build,
#                                          graph sparsification, pipeline sim,
#                                          energy accounting, tenant splits

ALL_PHASES = (
    PHASE_DATASET,
    PHASE_TRAINING,
    PHASE_TRAINING_BATCHED,
    PHASE_PREDICTOR,
    PHASE_ALLOCATION,
    PHASE_TIMING,
    PHASE_FUNCTIONAL,
    PHASE_MAPPING,
    PHASE_ACCELERATOR,
)

# name -> [seconds, calls]; guarded by _lock.
_totals: Dict[str, List[float]] = {}
_lock = threading.Lock()
_tls = threading.local()


def _reinit_after_fork() -> None:
    """Replace the lock in a forked child (the parent may hold it)."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; a no-op elsewhere
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _stack() -> List[List[Any]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _accrue(name: str, seconds: float, calls: int = 0) -> None:
    with _lock:
        entry = _totals.get(name)
        if entry is None:
            _totals[name] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls


class phase:
    """Attribute enclosed wall time to ``name``.

    Works as a context manager and as a decorator.  Instances hold no
    mutable state, so one decorator instance is safe across threads and
    reentrant calls.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "phase":
        now = time.perf_counter()
        stack = _stack()
        if stack:
            top = stack[-1]
            _accrue(top[0], now - top[1])
            top[1] = now
        stack.append([self.name, now])
        return self

    def __exit__(self, *exc_info) -> None:
        now = time.perf_counter()
        stack = _stack()
        top = stack.pop()
        _accrue(top[0], now - top[1], calls=1)
        if stack:
            stack[-1][1] = now

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.__class__(self.name):
                return fn(*args, **kwargs)
        return wrapper


def accrue_calls(name: str, count: int) -> None:
    """Add call credit to a phase without adding time.

    The replica-batched trainer runs one timed ``phase`` block per group
    but advances R replicas inside it; charging ``R - 1`` extra calls
    keeps the phase record's ``calls`` field a replica count, comparable
    with the serial path's one-call-per-run accounting.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count:
        _accrue(name, 0.0, calls=count)


def snapshot() -> Dict[str, Tuple[float, int]]:
    """Copy of the accumulated (seconds, calls) per phase."""
    with _lock:
        return {name: (entry[0], entry[1]) for name, entry in _totals.items()}


def phase_totals() -> Dict[str, Dict[str, float]]:
    """Accumulated totals as ``{phase: {"seconds": s, "calls": n}}``."""
    return {
        name: {"seconds": seconds, "calls": calls}
        for name, (seconds, calls) in snapshot().items()
    }


def since(
    before: Dict[str, Tuple[float, int]],
) -> Dict[str, Dict[str, float]]:
    """Phase time spent between a :func:`snapshot` and now.

    Near-zero deltas are dropped, so an experiment's profile lists only
    the phases it actually exercised.
    """
    spent: Dict[str, Dict[str, float]] = {}
    for name, (seconds, calls) in snapshot().items():
        base_s, base_n = before.get(name, (0.0, 0))
        delta_s = seconds - base_s
        delta_n = calls - base_n
        if delta_s > 1e-9 or delta_n > 0:
            spent[name] = {"seconds": delta_s, "calls": delta_n}
    return spent


def reset() -> None:
    """Drop all accumulated totals (tests and sweep drivers)."""
    with _lock:
        _totals.clear()


def merge(
    into: Dict[str, Dict[str, float]],
    spent: Dict[str, Dict[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Accumulate one profile into another (sweep-wide aggregation)."""
    for name, entry in spent.items():
        target = into.setdefault(name, {"seconds": 0.0, "calls": 0})
        target["seconds"] += entry["seconds"]
        target["calls"] += entry["calls"]
    return into


def phase_report(
    wall_s: float,
    per_experiment: Optional[Dict[str, Dict[str, Any]]] = None,
    quick: Optional[bool] = None,
) -> Dict[str, Any]:
    """Build the ``BENCH_phases.json`` payload.

    ``per_experiment`` maps experiment id to ``{"wall_s": float,
    "phases": {phase: {"seconds", "calls"}}}``.  Sweep-wide phase totals
    are the sum over experiments; ``coverage`` is the attributed share of
    the measured wall time — the tentpole's acceptance asks for >= 0.9.
    """
    phases: Dict[str, Dict[str, float]] = {}
    if per_experiment:
        for entry in per_experiment.values():
            merge(phases, entry.get("phases", {}))
    attributed = sum(entry["seconds"] for entry in phases.values())
    ordered = dict(sorted(
        phases.items(), key=lambda item: -item[1]["seconds"],
    ))
    for entry in ordered.values():
        entry["share_of_wall"] = (
            entry["seconds"] / wall_s if wall_s > 0 else 0.0
        )
    report: Dict[str, Any] = {
        "wall_s": wall_s,
        "attributed_s": attributed,
        "coverage": attributed / wall_s if wall_s > 0 else 0.0,
        "phases": ordered,
    }
    if quick is not None:
        report["quick"] = quick
    if per_experiment is not None:
        report["per_experiment"] = per_experiment
    return report


def write_phase_report(
    path: str,
    wall_s: float,
    per_experiment: Optional[Dict[str, Dict[str, Any]]] = None,
    quick: Optional[bool] = None,
) -> Dict[str, Any]:
    """Write :func:`phase_report` as JSON; returns the payload."""
    import json

    report = phase_report(wall_s, per_experiment, quick)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report
