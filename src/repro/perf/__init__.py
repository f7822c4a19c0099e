"""Performance subsystem: artifact caching and phase-attributed profiling.

:mod:`repro.perf.profile` is the always-on phase timer that attributes
experiment wall time to named phases (dataset generation, GCN training,
predictor fit, allocation search, timing model, functional sim, vertex
mapping); the sweep driver aggregates it into ``BENCH_phases.json``.

See :mod:`repro.perf.cache` for the cache itself.  Consumers:

* :func:`repro.graphs.datasets.load_dataset` — generated dataset graphs;
* :func:`repro.predictor.dataset.generate_dataset` — predictor training
  sets;
* :class:`repro.runtime.Session` — workloads and fitted predictors;
* :class:`repro.accelerators.base.AcceleratorModel` — stage-latency
  tables / allocator inputs.

Set the ``REPRO_CACHE_DIR`` environment variable to also persist
artifacts on disk across processes and runs; ``REPRO_CACHE_MAX_MB``
caps that disk tier (LRU-by-mtime eviction).
"""

from repro.perf import profile
from repro.perf.cache import (
    DEFAULT_DISK_CACHE_MAX_MB,
    ENV_DISK_CACHE,
    ENV_DISK_CACHE_MAX_MB,
    ArtifactCache,
    CacheKeyError,
    CacheStats,
    cache_key,
    clear_cache,
    get_cache,
)

__all__ = [
    "DEFAULT_DISK_CACHE_MAX_MB",
    "ENV_DISK_CACHE",
    "ENV_DISK_CACHE_MAX_MB",
    "ArtifactCache",
    "CacheKeyError",
    "CacheStats",
    "cache_key",
    "clear_cache",
    "get_cache",
    "profile",
]
