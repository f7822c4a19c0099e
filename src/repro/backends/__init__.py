"""Simulation backends: pluggable engines behind one pricing protocol.

``repro.backends`` is the boundary between *what* an epoch does (lowered
programs: row reads, MVM activation streams, update writes, buffer
traffic) and *how* it is priced.  Two engines register here:

* ``"analytic"`` — the closed-form latency tables (the historical path,
  byte-identical to the pre-protocol code; the default);
* ``"trace"`` — compile-once instruction streams replayed per lane with
  ceil occupancy (:mod:`repro.backends.trace`).

The active backend is ambient per process, scoped with
:func:`use_backend`; consumers
(:class:`~repro.accelerators.base.AcceleratorModel`,
:class:`~repro.core.cosim.CoSimulation`, the serving cost model, the
profiling estimator) resolve it through :func:`active_backend`.
MODEL.md section 13 documents the protocol and the cross-validation
methodology.
"""

from repro.backends.protocol import (
    DEFAULT_BACKEND,
    EpochProgram,
    EpochTiming,
    SimulationBackend,
    active_backend,
    active_backend_name,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
    set_active_backend,
    use_backend,
)
from repro.backends.analytic import ANALYTIC_BACKEND, AnalyticBackend
from repro.backends.trace import TRACE_BACKEND, TraceBackend

#: The registered backend names (registry order) — the RunSpec validator.
BACKEND_NAMES = backend_names()

__all__ = [
    "ANALYTIC_BACKEND",
    "AnalyticBackend",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "EpochProgram",
    "EpochTiming",
    "SimulationBackend",
    "TRACE_BACKEND",
    "TraceBackend",
    "active_backend",
    "active_backend_name",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_active_backend",
    "use_backend",
]
