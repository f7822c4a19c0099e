"""`repro.serving`: discrete-event inference-serving simulation.

The paper evaluates GoPIM on training throughput; a production system
serves queries.  This package models a GoPIM chip answering GCN
inference requests (ego-subgraph lookups) under live traffic:

* :mod:`repro.serving.arrivals` — Poisson, MMPP (bursty), and
  trace-replay arrival processes, drawn from named Session RNG streams;
* :mod:`repro.serving.batching` — size-, timeout-, and hybrid-triggered
  micro-batch formation from the arrival timeline;
* :mod:`repro.serving.cost` — per-batch stage service times through the
  analytic :class:`~repro.stages.latency.StageTimingModel` laws, with
  per-stage replica counts from the Algorithm 1 allocation layer;
* :mod:`repro.serving.engine` — the queueing core: a batched scan-form
  timeline engine (the PR 1 pipeline recurrence generalised to release
  times), gated by a byte-identity suite against the scalar event loop
  in ``tests/oracles/serving.py``;
* :mod:`repro.serving.stats` — :class:`ServingStats`: p50/p95/p99 tail
  latency, throughput saturation, queue-depth curves, utilisation;
* :mod:`repro.serving.service` — :class:`ServingSpec` +
  :func:`run_serving`, the driver the ``srv_*`` experiments call.

All queueing arithmetic is integer nanoseconds, which is what makes the
two engines *byte*-identical rather than merely close: integer max/add
is exact under the scan engine's reassociation.
"""

from repro.serving.arrivals import (
    arrival_times_ns,
    unit_mmpp,
    unit_poisson,
    unit_trace,
)
from repro.serving.batching import BatchingPolicy, BatchPlan, form_batches
from repro.serving.cost import ServingCostModel, build_serving_system
from repro.serving.engine import ServingTimeline, simulate_serving
from repro.serving.service import ServingRun, ServingSpec, run_serving
from repro.serving.stats import ServingStats

__all__ = [
    "BatchPlan",
    "BatchingPolicy",
    "ServingCostModel",
    "ServingRun",
    "ServingSpec",
    "ServingStats",
    "ServingTimeline",
    "arrival_times_ns",
    "build_serving_system",
    "form_batches",
    "run_serving",
    "simulate_serving",
    "unit_mmpp",
    "unit_poisson",
    "unit_trace",
]
