"""Experiment registry facade and the run-everything driver.

The registry is **declarative**: each experiment module registers an
:class:`~repro.runtime.ExperimentSpec` by decorating its run function
with :func:`repro.runtime.experiment`, and :func:`specs` collects them
by importing the package — there is no hand-maintained id→function map.
``REGISTRY`` and ``WALL_CLOCK_EXPERIMENTS`` are derived views over the
collected specs, computed lazily via module ``__getattr__`` so importing
this module stays cheap.

``run_all`` executes experiments under a :class:`~repro.runtime.Session`
(the current one unless given) and returns results in registry order —
this is what regenerates EXPERIMENTS.md.  Each run enters its session
with :meth:`~repro.runtime.Session.use`, so the experiment and every
pricing call beneath it read that session (and the backend its spec
names) from :func:`~repro.runtime.current_session`.
``run_all(..., jobs=N)`` fans out over a process pool: the session's
spec ships to each worker (specs are plain dicts), workloads every experiment needs are prefetched into
the shared cache first, and submission order is longest-first from
recorded wall times with spec cost hints breaking ties for unmeasured
experiments.  All artifacts are content-keyed and every run function
derives its randomness from explicit seeds, so a parallel sweep produces
byte-identical tables to a serial one — the scheduling only changes
wall-clock time.  The one exception is :data:`WALL_CLOCK_EXPERIMENTS`:
experiments whose *results* are wall-clock measurements differ between
any two runs, serial or parallel.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult
from repro.runtime import (
    ExperimentSpec,
    RunSpec,
    Session,
    collect_specs,
    current_session,
)

_specs: Optional[Dict[str, ExperimentSpec]] = None


def specs() -> Dict[str, ExperimentSpec]:
    """The collected experiment specs, in registry (rendering) order."""
    global _specs
    if _specs is None:
        _specs = collect_specs("repro.experiments")
    return _specs


def __getattr__(name: str) -> Any:
    # Derived, lazily computed views over the spec collection.  Computed
    # per access (the collection itself is cached) so they always agree
    # with the specs.
    if name == "REGISTRY":
        return {spec_id: spec.run for spec_id, spec in specs().items()}
    if name == "WALL_CLOCK_EXPERIMENTS":
        return frozenset(
            spec_id for spec_id, spec in specs().items() if spec.wall_clock
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_experiment(
    experiment_id: str,
    session: Optional[Session] = None,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment by id inside ``session`` (default: the current
    one)."""
    spec = specs().get(experiment_id)
    if spec is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(specs())}"
        )
    with (session or current_session()).use():
        return spec.run(**kwargs)


def validate_experiment_ids(
    only: Optional[Sequence[str]] = None,
) -> List[str]:
    """Resolve ``only`` against the registry, rejecting unknown ids.

    Raises one :class:`ExperimentError` naming *all* unknown ids up
    front, so a long sweep never fails midway through a partial run.
    """
    known = specs()
    ids = list(known) if only is None else list(only)
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ExperimentError(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"available: {', '.join(known)}"
        )
    return ids


def _execute(
    task: Tuple[str, dict, dict],
    session: Optional[Session] = None,
) -> ExperimentResult:
    """Run one experiment and stamp its provenance.

    Used verbatim by the serial loop and the worker processes.  The
    task carries the session's ``RunSpec`` as a plain dict (sessions
    themselves hold unpicklable state); a worker rebuilds an equivalent
    session from it, which is safe because equal specs resolve to
    byte-identical artifacts.
    """
    experiment_id, overrides, spec_payload = task
    session = session or Session(RunSpec.from_dict(spec_payload))
    result = run_experiment(experiment_id, session=session, **overrides)
    return session.stamp(result, experiment_id)


def _execute_timed(
    task: Tuple[str, dict, dict],
    session: Optional[Session] = None,
) -> Tuple[ExperimentResult, float, Dict[str, Dict[str, float]]]:
    """:func:`_execute` plus wall time and its phase-attributed profile.

    The wall time feeds the LPT scheduler; the phase delta (snapshot
    before/after, so inherited fork history cancels out) feeds
    ``BENCH_phases.json``.
    """
    from repro.perf import profile

    before = profile.snapshot()
    start = time.perf_counter()
    result = _execute(task, session=session)
    seconds = time.perf_counter() - start
    return result, seconds, profile.since(before)


def run_all(
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
    phase_log: Optional[Dict[str, dict]] = None,
    session: Optional[Session] = None,
) -> List[ExperimentResult]:
    """Run every registered experiment (registry order).

    Parameters
    ----------
    quick:
        Apply each spec's quick overrides (CI smoke parameters).
    only:
        Subset of experiment ids; all ids are validated before anything
        runs.
    jobs:
        Worker processes.  ``1`` runs in-process; ``N > 1`` fans out over
        :func:`repro.experiments.sweep.run_scheduled` — forked workers,
        longest experiments first, shared warm caches — with results
        returned in registry order and content identical to a serial
        run.
    phase_log:
        Optional dict filled with each experiment's profile:
        ``{id: {"wall_s": seconds, "phases": {phase: {"seconds",
        "calls"}}}}`` — the per-experiment half of
        ``profile.phase_report``.
    session:
        The :class:`~repro.runtime.Session` to run under; defaults to
        the current one.  Its spec — simulation backend included
        (MODEL.md section 13) — travels to workers, and its provenance
        is stamped into every result.

    Both paths record per-experiment wall times so later parallel runs
    schedule longest-first from measured durations.
    """
    from repro.experiments import sweep

    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    ids = validate_experiment_ids(only)
    session = session or current_session()
    spec_payload = session.spec.to_dict()
    tasks = [
        (experiment_id,
         dict(specs()[experiment_id].quick) if quick else {},
         spec_payload)
        for experiment_id in ids
    ]
    engine = session.spec.backend
    if jobs == 1 or len(tasks) <= 1:
        results = []
        durations = {}
        for task in tasks:
            result, seconds, phases = _execute_timed(task, session=session)
            results.append(result)
            durations[
                sweep.wall_time_key(task[0], quick, engine)
            ] = seconds
            if phase_log is not None:
                phase_log[task[0]] = {"wall_s": seconds, "phases": phases}
        sweep.record_wall_times(durations)
        return results
    # Warm the shared cache with every workload the scheduled specs
    # declare, so forked workers inherit them instead of regenerating.
    session.prefetch(
        name for experiment_id in ids
        for name in specs()[experiment_id].datasets
    )
    cost_hints = {
        experiment_id: specs()[experiment_id].cost_hint
        for experiment_id in ids
    }
    return sweep.run_scheduled(
        tasks, jobs, quick, _execute_timed, phase_log=phase_log,
        cost_hints=cost_hints, backend=engine,
    )
