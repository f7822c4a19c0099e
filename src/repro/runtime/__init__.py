"""Runtime layer: typed run specs resolved into deterministic sessions.

The entry point for every way of driving this reproduction — ``run_all``
sweeps, the CLI, services, CI smoke runs — is the same pair of objects:

* :class:`RunSpec` — a frozen, hashable description of a run (dataset,
  seed, scale, micro-batch, hardware overrides, accelerator id,
  simulation backend);
* :class:`Session` — the resolved runtime built from a spec: hardware
  config, simulation backend, named seeded RNG streams, the artifact
  cache, and result provenance.  ``with session.use():`` makes it the
  run context that :func:`current_session` returns to code deep in the
  call tree; outside every such block that is a process default.

Experiments declare themselves with the :func:`experiment` decorator;
:func:`collect_specs` gathers the resulting :class:`ExperimentSpec`
entries into the registry — no hand-written id→function maps.

See docs/ARCHITECTURE.md for where this layer sits in the stack.
"""

from repro.runtime.registry import (
    ExperimentSpec,
    collect_specs,
    experiment,
)
from repro.runtime.session import (
    Session,
    current_session,
    stream_seed,
)
from repro.runtime.spec import EXPERIMENT_ARRAY_BYTES, RunSpec

__all__ = [
    "EXPERIMENT_ARRAY_BYTES",
    "ExperimentSpec",
    "RunSpec",
    "Session",
    "collect_specs",
    "current_session",
    "experiment",
    "stream_seed",
]
