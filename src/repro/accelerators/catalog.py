"""The evaluated accelerator design points (Section VII-A's baselines).

Factory functions return configured :class:`AcceleratorModel` instances:

============== ============== ==================== ============ =========
Name           Pipeline       Replica policy       Updating     Quirks
============== ============== ==================== ============ =========
Serial         none           none                 full/index
SlimGNN-like   intra-batch    uniform (space-prop) full/index   input pruning
ReGraphX       intra-batch    fixed CO:AG = 1:2    full/index
ReFlip         intra-batch    CO-family only       full/index   reload/edge
GoPIM-Vanilla  intra+inter    ML greedy (Alg. 1)   full/index
GoPIM          intra+inter    ML greedy (Alg. 1)   ISU
+PP / +ISU     intra+inter    none                 full / ISU   Fig. 14
Naive          intra+inter    none                 full/index   Fig. 15
============== ============== ==================== ============ =========

The greedy-allocated design points (GoPIM-Vanilla, GoPIM and the
ablation variants below) share Algorithm 1 searches through the
content-keyed ``"allocation"`` cache: any two ``run()`` calls that
arrive at the same stage times, costs, caps, and budget — sweep
repeats, replicate seeds, variants differing only downstream of the
allocator — pay for one search between them.

Every factory prices with one of two module-level calibrations:
:data:`~repro.stages.latency.DEFAULT_TIMING_PARAMS` (the model's
default) or :data:`REFLIP_TIMING_PARAMS`.  A fresh design point per
call therefore shares its constants' remembered key encoding with every
other, and a warm run's timing-model key walks no dataclass.
"""

from __future__ import annotations

from typing import Optional

from repro.accelerators.base import AcceleratorModel
from repro.allocation.baselines import (
    combination_only_allocation,
    fixed_ratio_allocation,
    uniform_allocation,
)
from repro.allocation.greedy import greedy_allocation
from repro.pipeline.simulator import ScheduleMode
from repro.stages.latency import TimingParams

# ReFlip's hybrid row/column execution reloads one source row per edge but
# engages several feature row-tiles concurrently without explicit replicas.
REFLIP_RELOAD_PENALTY = 1.0
REFLIP_EDGE_PARALLELISM = 16
REFLIP_TIMING_PARAMS = TimingParams(
    reload_penalty=REFLIP_RELOAD_PENALTY,
    intrinsic_edge_parallelism=REFLIP_EDGE_PARALLELISM,
)


def serial() -> AcceleratorModel:
    """Sequential execution, no pipeline, no sparsification."""
    return AcceleratorModel(name="Serial", schedule=ScheduleMode.SERIAL)


def slimgnn_like() -> AcceleratorModel:
    """SlimGNN minus weight pruning: uniform replicas + input pruning at
    the adaptive kept-vertex fraction."""
    return AcceleratorModel(
        name="SlimGNN-like",
        schedule=ScheduleMode.INTRA_BATCH,
        allocator=uniform_allocation,
        prune_graph=True,
    )


def regraphx() -> AcceleratorModel:
    """Fixed CO:AG = 1:2 crossbar ratio, no sparsification."""
    return AcceleratorModel(
        name="ReGraphX",
        schedule=ScheduleMode.INTRA_BATCH,
        allocator=fixed_ratio_allocation,
    )


def reflip() -> AcceleratorModel:
    """Replicas only in Combination phases; per-edge source reloads."""
    return AcceleratorModel(
        name="ReFlip",
        schedule=ScheduleMode.INTRA_BATCH,
        allocator=combination_only_allocation,
        timing_params=REFLIP_TIMING_PARAMS,
    )


def gopim_vanilla(time_predictor=None) -> AcceleratorModel:
    """GoPIM without ISU: ML-allocated replicas, index mapping, full updates."""
    return AcceleratorModel(
        name="GoPIM-Vanilla",
        schedule=ScheduleMode.INTRA_INTER,
        allocator=greedy_allocation,
        time_predictor=time_predictor,
    )


def gopim(time_predictor=None, theta: Optional[float] = None) -> AcceleratorModel:
    """Full GoPIM: ML-allocated replicas + interleaved selective updating."""
    return AcceleratorModel(
        name="GoPIM",
        schedule=ScheduleMode.INTRA_INTER,
        allocator=greedy_allocation,
        update_strategy="isu",
        time_predictor=time_predictor,
        theta=theta,
    )


def plus_pp() -> AcceleratorModel:
    """Fig. 14's +PP: intra+inter-batch pipelining, no replicas, no ISU."""
    return AcceleratorModel(name="+PP", schedule=ScheduleMode.INTRA_INTER)


def plus_isu() -> AcceleratorModel:
    """Fig. 14's +ISU: +PP plus interleaved selective updating."""
    return AcceleratorModel(
        name="+ISU",
        schedule=ScheduleMode.INTRA_INTER,
        update_strategy="isu",
    )


def naive_pipeline() -> AcceleratorModel:
    """Fig. 15's Naive: pipelining with index mapping, no replicas."""
    return AcceleratorModel(name="Naive", schedule=ScheduleMode.INTRA_INTER)
