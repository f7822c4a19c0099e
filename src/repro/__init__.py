"""GoPIM reproduction: GCN-oriented pipeline optimization for PIM accelerators.

A from-scratch Python implementation of GoPIM (HPCA 2025) and every
substrate it depends on: a ReRAM PIM accelerator model, a numpy GCN
training stack, synthetic stand-ins for the OGB datasets, an ML
execution-time predictor, the max-heap greedy crossbar allocator, ISU
(interleaved mapping with adaptive selective updating), and the baseline
accelerators (Serial, SlimGNN-like, ReGraphX, ReFlip).

Quickstart (priced on the current session's chip and predictor; enter
a ``repro.runtime.Session(RunSpec(...))`` to change the run's settings)::

    from repro import GoPIMSystem, workload_from_dataset

    system = GoPIMSystem()
    report = system.simulate(workload_from_dataset("ddi"))
    print(report.total_time_ns, report.energy_pj)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core import GoPIMPlan, GoPIMSystem
from repro.errors import (
    AllocationError,
    ConfigError,
    ExperimentError,
    GoPIMError,
    GraphError,
    MappingError,
    PipelineError,
    PredictorError,
    TrainingError,
)
from repro.graphs import Graph, dataset_names, load_dataset
from repro.hardware import DEFAULT_CONFIG, HardwareConfig
from repro.stages import Workload, workload_from_dataset

__version__ = "1.0.0"

__all__ = [
    "GoPIMPlan",
    "GoPIMSystem",
    "AllocationError",
    "ConfigError",
    "ExperimentError",
    "GoPIMError",
    "GraphError",
    "MappingError",
    "PipelineError",
    "PredictorError",
    "TrainingError",
    "Graph",
    "dataset_names",
    "load_dataset",
    "DEFAULT_CONFIG",
    "HardwareConfig",
    "Workload",
    "workload_from_dataset",
    "__version__",
]
