"""AST and signature checks on the shape of ``src/``.

* ``src/`` ships no bit-identity oracles: no function or method under
  ``src/repro`` is named ``*_reference``.  Oracles live in
  ``tests/oracles/``, next to the tests that use them.
* Run settings come from the session.  An experiment declares only the
  parameters it sweeps: the workload scale, micro-batch, time predictor
  and hardware are read from ``current_session()`` (its ``RunSpec``).
  Nothing above the hardware primitives falls back to the unscaled
  ``DEFAULT_CONFIG``, by name or by leaving out a primitive's config,
  nor passes the vertex mappings a literal crossbar row count.
* The GNN trainers train one configuration.  Their signatures hold
  only what some run sets; every other hyperparameter is a module
  constant (``repro.gcn.batched``, ``repro.gcn.optim``).  The same
  holds for the functions beside the other module constants that
  stand for values no run sets.
* ``src/`` defines only what is used: every function, class, method and
  module constant under ``src/repro`` is used by the program, its
  examples, its benchmarks or the test oracles, not by tests alone.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: The one oracle still in ``src/``.  abl-allocator reports it as the
#: "greedy (reference loop)" row and the e2e tracer binds it; ROADMAP
#: item 2 names its unblocker (that row becomes a ``bench_hotpaths``
#: entry and the tracer target goes, in one [benchmark] PR).
ALLOWED_REFERENCES = {
    "repro/allocation/greedy.py::greedy_allocation_reference",
}

#: Run settings an experiment reads from its session's ``RunSpec``
#: (``rows_per_crossbar``: its hardware's ``crossbar_rows``).
SESSION_SETTINGS = {
    "scale", "micro_batch", "use_predictor", "rows_per_crossbar",
}

#: Packages that price on the session's hardware, never the default.
SESSION_PRICED = (
    "experiments", "accelerators", "core", "stages", "predictor", "serving",
)


def _modules(*packages: str):
    roots = [SRC / package for package in packages] or [SRC]
    files = sorted(path for root in roots for path in root.rglob("*.py"))
    assert files, f"no sources under {roots}"
    return [
        (path.relative_to(SRC.parent).as_posix(), ast.parse(path.read_text()))
        for path in files
    ]


def _functions(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_reference_oracles_in_src():
    found = {
        f"{name}::{node.name}"
        for name, tree in _modules()
        for node in _functions(tree)
        if node.name.endswith("_reference")
    }
    assert found - ALLOWED_REFERENCES == set(), (
        "oracles belong in tests/oracles/, not src/:\n"
        + "\n".join(sorted(found - ALLOWED_REFERENCES))
    )


def test_experiments_take_no_run_settings():
    found = {
        f"{name}::{node.name}({arg.arg})"
        for name, tree in _modules("experiments")
        for node in _functions(tree)
        for arg in (
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
        )
        if arg.arg in SESSION_SETTINGS
    }
    assert not found, (
        "read these from current_session().spec, not a parameter:\n"
        + "\n".join(sorted(found))
    )


def _is_session_config(node) -> bool:
    """``session.config`` or ``current_session().config``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "config"):
        return False
    owner = node.value
    if isinstance(owner, ast.Call):
        owner = owner.func
    return isinstance(owner, ast.Name) and owner.id in (
        "session", "current_session",
    )


def test_experiments_do_not_copy_the_session_config():
    # ``config = session.config`` only re-declares what every pricing
    # call already reads from the session when given no config.
    found = {
        f"{name}:{node.lineno}"
        for name, tree in _modules("experiments")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and _is_session_config(node.value)
    }
    assert not found, "\n".join(sorted(found))


def test_no_default_config_above_the_hardware_primitives():
    found = {
        f"{name}:{node.lineno}"
        for name, tree in _modules(*SESSION_PRICED)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "DEFAULT_CONFIG")
        or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_CONFIG")
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "DEFAULT_CONFIG" for alias in node.names)
        )
    }
    assert not found, (
        "price on current_session().config, not DEFAULT_CONFIG:\n"
        + "\n".join(sorted(found))
    )


def _default_config_primitives():
    """Name -> (position, name) of the config parameter of every ``src``
    callable whose config defaults to ``DEFAULT_CONFIG``."""
    import pkgutil

    import repro
    from repro.hardware.config import DEFAULT_CONFIG

    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == info.name
            if not (defined_here and callable(obj)):
                continue
            try:
                params = list(_parameters(obj).values())
            except (TypeError, ValueError):
                continue
            for position, param in enumerate(params):
                if param.default is DEFAULT_CONFIG:
                    found[name] = (position, param.name)
    return found


def _calls_leaving_out(primitives, literals_count=True):
    """``file:line callee`` of every session-priced call that leaves out
    the argument ``primitives`` maps its callee's name to, as
    ``(position, keyword)``; with ``literals_count=False`` a literal
    passed for it is left out too."""
    found = set()
    for name, tree in _modules(*SESSION_PRICED):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = getattr(func, "id", getattr(func, "attr", None))
            if callee not in primitives:
                continue
            position, keyword = primitives[callee]
            values = [kw.value for kw in node.keywords if kw.arg == keyword]
            if len(node.args) > position:
                values.append(node.args[position])
            passed = any(
                literals_count or not isinstance(value, ast.Constant)
                for value in values
            ) or any(kw.arg is None for kw in node.keywords) or any(
                isinstance(arg, ast.Starred) for arg in node.args
            )
            if not passed:
                found.add(f"{name}:{node.lineno} {callee}")
    return found


def test_no_call_falls_back_to_the_default_config():
    # A primitive called without its config prices on DEFAULT_CONFIG as
    # surely as naming it would.
    primitives = _default_config_primitives()
    assert "MappedMatrix" in primitives and "plan_tiling" in primitives
    found = _calls_leaving_out(primitives)
    assert not found, (
        "pass the session's config (current_session().config):\n"
        + "\n".join(sorted(found))
    )


def test_no_mapping_call_fixes_the_crossbar_rows():
    # A literal row count passed to a vertex mapping fixes its crossbars
    # whatever the session's hardware; build_update_plan defaults to the
    # session's.
    from repro.mapping import vertex_map

    primitives = {
        fn.__name__: (
            list(_parameters(fn)).index("rows_per_crossbar"),
            "rows_per_crossbar",
        )
        for fn in (vertex_map.index_mapping, vertex_map.interleaved_mapping)
    }
    found = _calls_leaving_out(primitives, literals_count=False)
    assert not found, (
        "pass the session's current_session().config.crossbar_rows:\n"
        + "\n".join(sorted(found))
    )


def _parameters(fn):
    return inspect.signature(fn).parameters


#: Callables that read these settings from the session, not a parameter.
SESSION_READERS = {
    "repro.runtime.session:Session.workload": {"scale"},
    "repro.runtime.session:Session.graph": {"scale"},
    "repro.core.cosim:CoSimulation": {"config"},
    "repro.core.gopim:GoPIMSystem": {"config", "predictor"},
    "repro.core.scheduler:MultiTenantScheduler": {
        "config", "accelerator_factory",
    },
}


@pytest.mark.parametrize("target", sorted(SESSION_READERS))
def test_facades_take_their_settings_from_the_session(target):
    module, _, qualname = target.partition(":")
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert not SESSION_READERS[target] & set(_parameters(owner))


def test_timing_config_and_predictor_dataset_are_required():
    from repro.predictor.predictor import TimePredictor
    from repro.stages.latency import StageTimingModel

    empty = inspect.Parameter.empty
    assert _parameters(StageTimingModel)["config"].default is empty
    assert _parameters(TimePredictor.fit)["dataset"].default is empty


#: Each training entry point's parameters: only what some run sets.
TRAINING_SURFACE = {
    "repro.gcn.batched:ReplicaSpec": [
        "graph", "task", "epochs", "random_state", "update_plan",
        "analog_noise_sigma",
    ],
    "repro.gcn.batched:BatchedNodeTrainer": [
        "graph", "random_states", "hidden_dim", "analog_noise_sigma",
    ],
    "repro.gcn.batched:BatchedNodeTrainer.train": [
        "epochs", "update_plans", "start_epoch",
    ],
    "repro.gcn.batched:BatchedLinkTrainer": [
        "graph", "random_states", "analog_noise_sigma",
    ],
    "repro.gcn.batched:BatchedLinkTrainer.train": [
        "epochs", "update_plans", "start_epoch",
    ],
    "repro.gcn.trainer:NodeClassificationTrainer": [
        "graph", "hidden_dim", "random_state",
    ],
    "repro.gcn.trainer:NodeClassificationTrainer.train": [
        "epochs", "update_plan", "start_epoch",
    ],
    "repro.gcn.trainer:LinkPredictionTrainer": ["graph", "random_state"],
    "repro.gcn.trainer:LinkPredictionTrainer.train": [
        "epochs", "update_plan", "start_epoch",
    ],
    "repro.gcn.trainer:make_trainer": ["graph", "task", "random_state"],
    "repro.core.gopim:GoPIMSystem.train": [
        "graph", "task", "epochs", "random_state",
    ],
    "repro.gcn.optim:Adam": [],
    "repro.gcn.model:GCN": ["layer_dims", "random_state", "analog_noise_sigma"],
    "repro.gcn.sage:GraphSAGE": ["layer_dims", "random_state"],
}


#: The parameters of functions beside which a value no run sets is a
#: module constant, pinned so that value cannot come back as an argument.
SETTABLE_SURFACE = {
    "repro.allocation.baselines:fixed_ratio_allocation": ["problem"],
    "repro.allocation.heap:FlatMaxKeys.max_excluding": ["item"],
    "repro.allocation.heap:LazyMaxKeys.top_and_second": [],
    "repro.mapping.selective:build_update_plan": [
        "graph", "strategy", "theta", "rows_per_crossbar", "minor_period",
    ],
    "repro.mapping.vertex_map:interleaved_mapping": [
        "graph", "rows_per_crossbar", "num_scopes",
    ],
    "repro.accelerators.catalog:slimgnn_like": [],
    "repro.graphs.generators:dc_sbm_graph": [
        "num_vertices", "num_communities", "avg_degree", "random_state",
        "name", "intra_ratio", "feature_dim", "feature_noise",
    ],
    "repro.graphs.datasets:relabel_by_noisy_degree": [
        "graph", "random_state",
    ],
    "repro.graphs.stats:powerlaw_alpha_mle": ["degrees"],
    "repro.predictor.dataset:random_workload": ["rng"],
    "repro.predictor.dataset:generate_dataset": [
        "num_samples", "random_state",
    ],
    "repro.predictor.evaluate:compare_models": ["dataset", "random_state"],
    "repro.predictor.evaluate:leave_one_dataset_out": [
        "held_out", "train_samples",
    ],
    "repro.predictor.feature_ablation:ablate_features": [
        "dataset", "random_state",
    ],
    "repro.predictor.profiler:profile_stage_times": ["timing_model"],
    "repro.hardware.endurance:estimate_lifetime": ["plan", "scheme_name"],
    "repro.hardware.endurance:compare_schemes": ["plans"],
    "repro.hardware.endurance:wear_levelled_rates": ["plan"],
    "repro.hardware.endurance:estimate_lifetime_with_leveling": [
        "plan", "scheme_name",
    ],
    "repro.core.scheduler:MultiTenantScheduler.greedy_split": ["workloads"],
    "repro.serving.arrivals:unit_mmpp": [
        "num_requests", "rng", "burstiness",
    ],
    "repro.experiments.harness:ExperimentResult.to_markdown": [],
}


def _signatures(surface):
    found = {}
    for target in surface:
        module, _, qualname = target.partition(":")
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        found[target] = [name for name in _parameters(owner) if name != "self"]
    return found


def test_the_trainers_take_only_what_a_run_sets():
    assert _signatures(TRAINING_SURFACE) == TRAINING_SURFACE


def test_functions_take_only_what_a_run_sets():
    assert _signatures(SETTABLE_SURFACE) == SETTABLE_SURFACE


# ----------------------------------------------------------------------
# Names only tests use
# ----------------------------------------------------------------------
#: Where a use of a ``src/`` name counts: the program, its examples and
#: benchmarks, and the test oracles (code that moved out of ``src/``).
#: Other tests do not count: a name only they call is surface no run
#: needs.
USE_ROOTS = ("src", "examples", "benchmarks", "tests/oracles")

#: The e2e tracer binds its targets by ``"module:qualname"`` string.
TRACER_PATH = REPO / "benchmarks" / "e2e" / "e2e_tracer.py"

#: Names ``src/`` keeps although only tests use them, each with its reason.
TEST_ONLY = {
    "repro/perf/cache.py::ArtifactCache.contains": (
        "the only look at the memory tier that changes nothing; the "
        "stale-entry tests need it, because get() promotes a disk entry"
    ),
    "repro/gcn/batched.py::TrainingResult.final_test_metric": (
        "deleting it moves the digest of gcn/batched.py that "
        "tests/perf/test_revisioned_layouts.py pins beside "
        "_TRAINING_REVISION; it goes with that revision's next bump"
    ),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """``(key, name, file, first line, last line)`` of every function,
    class, non-dunder method and UPPER_CASE module constant."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        key = path.relative_to(SRC.parent).as_posix()
        where = path.relative_to(REPO).as_posix()

        def visit(body, prefix):
            for node in body:
                if isinstance(node, (
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                )):
                    if not _is_dunder(node.name):
                        found.append((
                            f"{key}::{prefix}{node.name}", node.name, where,
                            node.lineno, node.end_lineno,
                        ))
                    if isinstance(node, ast.ClassDef):
                        visit(node.body, f"{prefix}{node.name}.")
                elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name) and name.id.isupper():
                                found.append((
                                    f"{key}::{name.id}", name.id, where,
                                    node.lineno, node.end_lineno,
                                ))

        visit(ast.parse(path.read_text()).body, "")
    return found


def _uses():
    """Name -> ``(file, line)`` of each use under :data:`USE_ROOTS`.

    A use is a loaded ``Name`` or ``Attribute``, or an imported name;
    a package's re-exports (imports in an ``__init__``) and its
    ``__all__`` strings are not uses, but its other code is.  Each
    tracer target counts as a use of its last qualname part.
    """
    uses = {}
    for root in USE_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            where = path.relative_to(REPO).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    if isinstance(node.ctx, ast.Store):
                        continue
                    names = [
                        node.id if isinstance(node, ast.Name) else node.attr
                    ]
                elif (
                    isinstance(node, ast.ImportFrom)
                    and path.name != "__init__.py"
                ):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    uses.setdefault(name, []).append((where, node.lineno))
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [
        target for _, group in tracer.SPAN_TARGETS for target in group
    ] + list(tracer.CACHE_TARGETS)
    for target in targets:
        name = target.partition(":")[2].rpartition(".")[2]
        uses.setdefault(name, []).append((TRACER_PATH.name, 0))
    return uses


def test_src_defines_only_what_is_used():
    # Names are matched by their last part, so a name that shares its
    # spelling with a used one (a method of another class) passes.
    uses = _uses()
    unused = {
        key
        for key, name, where, first, last in _definitions()
        if not any(
            not (site == where and first <= line <= last)
            for site, line in uses.get(name, ())
        )
    }
    assert unused - set(TEST_ONLY) == set(), (
        "only tests use these; delete them (and the tests that only "
        "exercise them), or list them in TEST_ONLY with a reason:\n"
        + "\n".join(sorted(unused - set(TEST_ONLY)))
    )
    assert set(TEST_ONLY) - unused == set(), (
        "no longer test-only; drop them from TEST_ONLY:\n"
        + "\n".join(sorted(set(TEST_ONLY) - unused))
    )
