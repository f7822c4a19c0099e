"""Micro-batch pipeline simulation for ReRAM GCN training."""

from repro.pipeline.simulator import (
    PipelineResult,
    ScheduleMode,
    simulate_pipeline,
)
from repro.pipeline.trace import (
    bottleneck_stage,
    render_gantt,
    utilization_report,
)

__all__ = [
    "PipelineResult",
    "ScheduleMode",
    "simulate_pipeline",
    "bottleneck_stage",
    "render_gantt",
    "utilization_report",
]
