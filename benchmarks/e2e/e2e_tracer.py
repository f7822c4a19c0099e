"""Outside-in layer tracer for the end-to-end benchmark.

The tracer times calls into each architecture layer's public functions
without editing ``src/``: it replaces every ``repro.*`` module attribute
that *is* one of the target objects with a span-recording wrapper, so
``from x import f`` bindings are caught as well as ``x.f`` lookups, and
puts the originals back afterwards.  Module-level tuples and lists that
hold a target (or a ``functools.partial`` of one) are rebuilt around the
wrapper too; ``abl-allocator``'s policy table is such a tuple.  A
reference held anywhere else (a dataclass default, an instance
attribute) is not traced and its time lands in the caller's span.

Spans live in memory: ``[name, start_ns, end_ns, parent, context]``.
A span's *self* time is its duration minus the durations of its direct
children, so self times of one pass add up to at most the pass wall.
``ArtifactCache`` lookups are counted per namespace (a hit is a lookup
that did not call ``compute``) but are not spans: the ``compute``
callback's own work belongs to whoever asked for the artifact.

This module imports nothing from ``repro`` at import time, so the
benchmark's parent process can use :func:`layer_metrics` without
loading the simulator.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# (span name, "module:qualname", ...).  Several targets may share one
# span name; a span name is a layer or a layer's sub-component, and the
# per-layer metrics are keyed on it.
SPAN_TARGETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("graphs.load_dataset", ("repro.graphs.datasets:load_dataset",)),
    ("graphs.sparsify", ("repro.graphs.sparsify:sparsify_by_degree",)),
    ("graphs.from_edges", ("repro.graphs.graph:Graph.from_edges",)),
    ("stages.timing", tuple(
        f"repro.stages.latency:StageTimingModel.{method}"
        for method in (
            "stage_time_matrix", "microbatch_times_ns", "compute_times_ns",
            "write_times_ns", "phase_write_times_ns", "reload_times_ns",
        )
    )),
    ("mapping", (
        "repro.mapping.vertex_map:interleaved_mapping",
        "repro.mapping.vertex_map:index_mapping",
        "repro.mapping.selective:build_update_plan",
        "repro.mapping.tiling:plan_tiling",
    )),
    ("allocation", (
        "repro.allocation.greedy:greedy_allocation",
        "repro.allocation.greedy:greedy_allocation_reference",
        "repro.allocation.baselines:exhaustive_allocation",
        "repro.allocation.baselines:serial_allocation",
        "repro.allocation.baselines:uniform_allocation",
        "repro.allocation.baselines:fixed_ratio_allocation",
        "repro.allocation.baselines:combination_only_allocation",
        "repro.allocation.batched:allocate_many",
    )),
    ("pipeline", ("repro.pipeline.simulator:simulate_pipeline",)),
    ("backends.analytic", (
        "repro.backends.analytic:AnalyticBackend.stage_time_matrix",
        "repro.backends.analytic:AnalyticBackend.service_times_ns",
    )),
    # compiled_stage_program (a memoised lookup, ~2500 calls a pass) is
    # left unwrapped: its time is backends.trace self time either way.
    ("backends.trace", (
        "repro.backends.trace:TraceBackend.stage_time_matrix",
        "repro.backends.trace:TraceBackend.service_times_ns",
    )),
    ("backends.trace.compile", ("repro.backends.trace:compile_stage_program",)),
    ("backends.trace.replay", ("repro.backends.trace:replay_stage_times",)),
    ("accelerators.run", ("repro.accelerators.base:AcceleratorModel.run",)),
    ("core", (
        "repro.core.cosim:CoSimulation.run",
        "repro.core.gopim:GoPIMSystem.plan",
        "repro.core.gopim:GoPIMSystem.simulate",
        "repro.core.gopim:GoPIMSystem.train",
        "repro.core.scheduler:MultiTenantScheduler.equal_split",
        "repro.core.scheduler:MultiTenantScheduler.greedy_split",
    )),
    ("gcn.train", (
        "repro.gcn.batched:train_replicas",
        "repro.gcn.batched:train_split_replicas",
        "repro.gcn.batched:BatchedNodeTrainer.train",
        "repro.gcn.batched:BatchedLinkTrainer.train",
        "repro.gcn.trainer:NodeClassificationTrainer.train",
        "repro.gcn.trainer:LinkPredictionTrainer.train",
        "repro.experiments.harness:train_with_split",
    )),
    ("hardware.functional", ("repro.hardware.functional_gcn:FunctionalGCN.forward",)),
    ("predictor.fit", (
        "repro.predictor.regressors:Regressor.fit",
        "repro.predictor.predictor:PerKindRegressor.fit",
        "repro.predictor.predictor:TimePredictor.fit",
    )),
    ("predictor.samples", ("repro.predictor.dataset:generate_dataset",)),
    ("serving", ("repro.serving.service:run_serving",)),
    ("serving.arrivals", (
        "repro.serving.arrivals:arrival_times_ns",
        "repro.serving.arrivals:unit_poisson",
        "repro.serving.arrivals:unit_mmpp",
        "repro.serving.arrivals:unit_trace",
    )),
    ("serving.batching", ("repro.serving.batching:form_batches",)),
    # Renamed per call to serving.engine.<balancer> (see _span_name).
    ("serving.engine", ("repro.serving.engine:simulate_serving",)),
    ("serving.stats", ("repro.serving.stats:ServingStats.from_simulation",)),
    ("serving.cost", (
        "repro.serving.cost:build_serving_system",
        "repro.serving.cost:ServingCostModel.batch_times_ns",
    )),
    ("perf.cache_key", ("repro.perf.cache:cache_key",)),
    ("runtime", tuple(
        f"repro.runtime.session:Session.{method}"
        for method in ("workload", "graph", "predictor", "prefetch")
    )),
    ("experiments", ("repro.experiments.registry:run_experiment",)),
)

CACHE_TARGETS = (
    "repro.perf.cache:ArtifactCache.get_or_compute",
    "repro.perf.cache:ArtifactCache.get",
)

# Cache namespaces reported per layer (hit ratio and misses).
CACHE_NAMESPACES = (
    "datasets", "workloads", "predictor-datasets", "fitted-regressors",
    "predictors", "timing-tables", "allocation", "trace_programs",
)

# Layers whose set-up self time is reported (setup.<layer>.self_s): a
# layer's spans are every span name equal to it or under it.
SETUP_LAYERS = ("graphs", "predictor", "backends.trace", "gcn")

_MISSING = object()


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"module:Class.attr"`` -> (owner, attribute, raw value)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Span stack plus per-namespace cache counters.

    ``context`` is stamped into every span and counter; the benchmark
    sets it to ``("setup", 0)`` or ``("pass", i)``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.context: Tuple[str, int] = ("setup", 0)
        # (context, namespace) -> [hits, misses]
        self.cache: Dict[Tuple[Tuple[str, int], str], List[int]] = (
            defaultdict(lambda: [0, 0])
        )
        # (context, name) -> summed value
        self.counters: Dict[Tuple[Tuple[str, int], str], float] = (
            defaultdict(float)
        )
        self._patches: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}
        self._wrappers: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.context, name)] += value

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open (an ancestor)."""
        spans = self.spans
        return any(spans[i][0] == name for i in self.stack)

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Optional[Callable] = None,
        name_of: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper around ``fn``.

        ``name_of(args, kwargs)`` picks the span name per call;
        ``observe(tracer, args, kwargs, result)`` runs after the span
        closes (ancestors still open) to record counts.
        """
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span_name = name if name_of is None else name_of(args, kwargs)
            spans.append([
                span_name, clock(), 0,
                stack[-1] if stack else -1, tracer.context,
            ])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every target; call :meth:`uninstall` to restore."""
        for name, targets in SPAN_TARGETS:
            for target in targets:
                self._patch(target, functools.partial(
                    self.wrap, name=name, observe=_OBSERVERS.get(name),
                    name_of=_NAMERS.get(name),
                ))
        for target in CACHE_TARGETS:
            self._patch(target, functools.partial(_cache_counter, self))
        # Module attributes: every repro module binding a target,
        # including the module that defines it.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                swapped = _swap(value, self._wrappers)
                if swapped is not value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, swapped)
        return self

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Build the wrapper for one target; patch it in place when the
        target is a class attribute (module bindings are swapped by
        :meth:`install`'s module scan)."""
        owner, attr, raw = _resolve(target)
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor else raw
        wrapper = make(fn)
        self._wrappers[id(fn)] = wrapper
        self._originals[id(wrapper)] = fn
        if isinstance(owner, type):
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, including bindings to a
        wrapper made by modules imported while the tracer was live."""
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                restored = _swap(value, self._originals)
                if restored is not value:
                    setattr(module, attr, restored)
        # Keyed by id(): a later install must not match a freed wrapper's
        # id reused by another object.
        self._originals.clear()
        self._wrappers.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[Tuple[Tuple[str, int], str], List[float]]:
        """(context, span name) -> [self seconds, calls]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[Tuple[Tuple[str, int], str], List[float]] = defaultdict(
            lambda: [0.0, 0],
        )
        for index, (name, start, end, _, context) in enumerate(self.spans):
            entry = out[(context, name)]
            entry[0] += (end - start - child_ns[index]) / 1e9
            entry[1] += 1
        return out

    def root_seconds(self, context: Tuple[str, int]) -> float:
        """Time under top-level spans in one context (for coverage)."""
        return sum(
            end - start
            for _, start, end, parent, ctx in self.spans
            if parent < 0 and ctx == context
        ) / 1e9

    def summary(self, passes: int) -> Dict[str, Any]:
        """Means over ``passes`` passes of self times, calls, counters
        and cache counts, plus set-up self times per
        :data:`SETUP_LAYERS` layer."""
        per_pass = max(1, passes)
        layers: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        setup: Dict[str, float] = {layer: 0.0 for layer in SETUP_LAYERS}
        for (context, name), (seconds, calls) in self.self_times().items():
            if context[0] == "pass":
                layers[name][0] += seconds
                layers[name][1] += calls
                continue
            for layer in SETUP_LAYERS:
                if name == layer or name.startswith(layer + "."):
                    setup[layer] += seconds
        counters: Dict[str, float] = defaultdict(float)
        for (context, name), value in self.counters.items():
            if context[0] == "pass":
                counters[name] += value
        cache: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        for (context, namespace), (hits, misses) in self.cache.items():
            if context[0] == "pass":
                cache[namespace][0] += hits
                cache[namespace][1] += misses
        # Totals first, one division: equal passes give exact means.
        return {
            "layers": {
                name: [seconds / per_pass, calls / per_pass]
                for name, (seconds, calls) in layers.items()
            },
            "setup": setup,
            "counters": {
                name: value / per_pass for name, value in counters.items()
            },
            "cache": {
                ns: [hits / per_pass, misses / per_pass]
                for ns, (hits, misses) in cache.items()
            },
        }

    def write_spans(self, path: str, **labels: Any) -> None:
        """Append every span as one JSON line (times in ns)."""
        with open(path, "a") as handle:
            for index, (name, start, end, parent, context) in enumerate(self.spans):
                handle.write(json.dumps({
                    **labels, "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "phase": context[0],
                    "pass": context[1],
                }) + "\n")


def _swap(value: Any, mapping: Dict[int, Any]) -> Any:
    """``value`` with mapped callables substituted, also inside tuples,
    lists and ``functools.partial`` objects.

    Returns ``value`` itself when nothing inside it is mapped, so callers
    can test identity to see whether a substitution happened.
    """
    if callable(value) and id(value) in mapping:
        return mapping[id(value)]
    if isinstance(value, functools.partial) and id(value.func) in mapping:
        return functools.partial(
            mapping[id(value.func)], *value.args, **value.keywords,
        )
    if type(value) in (tuple, list):
        items = [_swap(item, mapping) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            return type(value)(items)
    return value


def _cache_counter(tracer: Tracer, method: Callable) -> Callable:
    """Counting wrapper for ``ArtifactCache.get_or_compute`` / ``get``."""
    cache = tracer.cache
    if method.__name__ == "get_or_compute":
        @functools.wraps(method)
        def get_or_compute(self, namespace, key, compute):
            computed = []

            def counted():
                computed.append(True)
                return compute()

            value = method(self, namespace, key, counted)
            cache[(tracer.context, namespace)][1 if computed else 0] += 1
            return value

        return get_or_compute

    @functools.wraps(method)
    def get(self, namespace, key, default=None):
        value = method(self, namespace, key, _MISSING)
        hit = value is not _MISSING
        cache[(tracer.context, namespace)][0 if hit else 1] += 1
        return value if hit else default

    return get


# ----------------------------------------------------------------------
# Per-call counts read from arguments and results
# ----------------------------------------------------------------------
def _observe_pipeline(tracer, args, kwargs, result) -> None:
    tracer.count("pipeline.sim_microbatches", result.num_microbatches)
    capacity = result.total_time_ns * result.num_stages
    tracer.count("pipeline.sim_capacity_ns", capacity)
    tracer.count(
        "pipeline.sim_idle_ns", capacity - float(result.stage_busy_ns.sum()),
    )


def _observe_replay(tracer, args, kwargs, result) -> None:
    records = args[0] if args else kwargs["records"]
    tracer.count("backends.trace.records", int(records.size))


def _observe_training(tracer, args, kwargs, result) -> None:
    if not tracer.inside("gcn.train"):
        tracer.count(
            "gcn.train.replicas",
            len(result) if isinstance(result, list) else 1,
        )


def _observe_allocation(tracer, args, kwargs, result) -> None:
    if not tracer.inside("allocation"):
        tracer.count("allocation.solves")


def _engine_name(args, kwargs) -> str:
    balancer = kwargs.get("balancer", args[3] if len(args) > 3 else "rr")
    return f"serving.engine.{balancer}"


_OBSERVERS = {
    "pipeline": _observe_pipeline,
    "backends.trace.replay": _observe_replay,
    "gcn.train": _observe_training,
    "allocation": _observe_allocation,
}
_NAMERS = {"serving.engine": _engine_name}


# ----------------------------------------------------------------------
# Per-layer metric names (the benchmark's per_layer list)
# ----------------------------------------------------------------------
SELF_METRICS = (
    "graphs.load_dataset", "graphs.sparsify", "graphs.from_edges",
    "stages.timing", "mapping", "allocation", "pipeline",
    "backends.analytic", "backends.trace", "backends.trace.compile",
    "backends.trace.replay", "accelerators.run", "core", "gcn.train",
    "hardware.functional", "predictor.fit", "predictor.samples",
    "serving", "serving.arrivals", "serving.batching", "serving.stats",
    "serving.cost", "serving.engine.jsq", "serving.engine.rr",
    "perf.cache_key", "runtime", "experiments",
)
CALL_METRICS = (
    "graphs.load_dataset", "graphs.from_edges", "stages.timing", "mapping",
    "accelerators.run", "backends.trace.compile", "predictor.fit",
    "perf.cache_key",
)


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Traced-pass metrics from a :meth:`Tracer.summary` dict.

    Every name is present whatever the workload ran: a layer the
    workload never called reports 0.
    """
    layers = summary["layers"]
    counters = summary["counters"]
    cache = summary["cache"]
    out: Dict[str, float] = {}
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = layers.get(name, [0.0, 0.0])[0]
    for name in CALL_METRICS:
        out[f"{name}.calls"] = layers.get(name, [0.0, 0.0])[1]
    out["allocation.solves"] = counters.get("allocation.solves", 0.0)
    out["pipeline.sim_microbatches"] = counters.get(
        "pipeline.sim_microbatches", 0.0,
    )
    capacity = counters.get("pipeline.sim_capacity_ns", 0.0)
    out["pipeline.sim_idle_frac"] = (
        counters.get("pipeline.sim_idle_ns", 0.0) / capacity if capacity else 0.0
    )
    records = counters.get("backends.trace.records", 0.0)
    replay_s = out["backends.trace.replay.self_s"]
    out["backends.trace.records"] = records
    out["backends.trace.records_per_s"] = records / replay_s if replay_s else 0.0
    out["gcn.train.replicas"] = counters.get("gcn.train.replicas", 0.0)
    for namespace in CACHE_NAMESPACES:
        hits, misses = cache.get(namespace, [0.0, 0.0])
        lookups = hits + misses
        out[f"perf.cache.{namespace}.hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"perf.cache.{namespace}.misses"] = misses
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.self_s"] = summary["setup"].get(layer, 0.0)
    return out
