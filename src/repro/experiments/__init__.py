"""Experiment harness: one module per reproduced table/figure.

Experiments declare themselves with the :func:`repro.runtime.experiment`
decorator and run inside a :class:`repro.runtime.Session`, which owns the
resolved hardware config, simulation backend, seeded RNG streams, and the
artifact cache; a run function reads it with
:func:`repro.runtime.current_session`.
"""

from repro.experiments.harness import ExperimentResult, combine_markdown
from repro.experiments.io import load_results, save_results

__all__ = [
    "ExperimentResult",
    "combine_markdown",
    "load_results",
    "save_results",
    "REGISTRY",
    "run_all",
    "run_experiment",
    "specs",
]


def __getattr__(name):
    # Lazy import: registry pulls in every experiment module, which in turn
    # imports the whole library; defer until actually requested.
    if name in ("REGISTRY", "run_all", "run_experiment", "specs"):
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
