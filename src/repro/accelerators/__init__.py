"""Accelerator design points: GoPIM and the paper's baselines."""

from repro.accelerators.base import AcceleratorModel, AcceleratorReport
from repro.accelerators.report import (
    energy_table,
    render_report,
    stage_table,
)
from repro.accelerators.catalog import (
    REFLIP_RELOAD_PENALTY,
    gopim,
    gopim_vanilla,
    naive_pipeline,
    plus_isu,
    plus_pp,
    reflip,
    regraphx,
    serial,
    slimgnn_like,
)

__all__ = [
    "AcceleratorModel",
    "AcceleratorReport",
    "REFLIP_RELOAD_PENALTY",
    "gopim",
    "gopim_vanilla",
    "naive_pipeline",
    "plus_isu",
    "plus_pp",
    "reflip",
    "regraphx",
    "serial",
    "slimgnn_like",
    "energy_table",
    "render_report",
    "stage_table",
]
