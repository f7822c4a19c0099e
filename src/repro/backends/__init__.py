"""Simulation backends: pluggable engines behind one pricing protocol.

``repro.backends`` is the boundary between *what* an epoch does (lowered
programs: row reads, MVM activation streams, update writes, buffer
traffic) and *how* it is priced.  Two engines live here:

* ``"analytic"`` — the closed-form latency tables (the historical path,
  byte-identical to the pre-protocol code; the default);
* ``"trace"`` — compile-once instruction streams replayed per lane with
  ceil occupancy (:mod:`repro.backends.trace`).

A run's :class:`~repro.runtime.RunSpec` names its engine.  Consumers
(:class:`~repro.accelerators.base.AcceleratorModel`,
:class:`~repro.core.cosim.CoSimulation`, the serving cost model, the
profiling estimator) call :func:`resolve_backend` with ``None`` to get
the engine of the current session (:func:`repro.runtime.current_session`).
MODEL.md section 13 documents the protocol and the cross-validation
methodology.
"""

from typing import Union

from repro.backends.protocol import (
    EpochProgram,
    EpochTiming,
    SimulationBackend,
)
from repro.backends.analytic import ANALYTIC_BACKEND, AnalyticBackend
from repro.backends.trace import TRACE_BACKEND, TraceBackend
from repro.errors import ConfigError

_ENGINES = {"analytic": ANALYTIC_BACKEND, "trace": TRACE_BACKEND}

#: The engine names, default first — the RunSpec validator.
BACKEND_NAMES = tuple(_ENGINES)


def get_backend(name: str) -> SimulationBackend:
    """Look a backend up by name."""
    backend = _ENGINES.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown simulation backend {name!r}; "
            f"known: {', '.join(BACKEND_NAMES)}"
        )
    return backend


def resolve_backend(
    backend: Union[None, str, SimulationBackend],
) -> SimulationBackend:
    """Normalise a backend argument: ``None`` means the current session's."""
    if backend is None:
        from repro.runtime.session import current_session

        backend = current_session().spec.backend
    if isinstance(backend, SimulationBackend):
        return backend
    return get_backend(backend)


__all__ = [
    "ANALYTIC_BACKEND",
    "AnalyticBackend",
    "BACKEND_NAMES",
    "EpochProgram",
    "EpochTiming",
    "SimulationBackend",
    "TRACE_BACKEND",
    "TraceBackend",
    "get_backend",
    "resolve_backend",
]
