"""AST and signature checks on the shape of ``src/``.

* ``src/`` ships no bit-identity oracles: no function or method under
  ``src/repro`` is named ``*_reference``.  Oracles live in
  ``tests/oracles/``, next to the tests that use them.
* Run settings come from the session.  An experiment declares only the
  parameters it sweeps: the workload scale, micro-batch, time predictor
  and hardware are read from ``current_session()`` (its ``RunSpec``).
  Nothing above the hardware primitives falls back to the unscaled
  ``DEFAULT_CONFIG``, by name or by leaving out a primitive's config,
  nor to the vertex mappings' default crossbar rows.
* The GNN trainers train one configuration.  Their signatures hold
  only what some run sets; every other hyperparameter is a module
  constant (``repro.gcn.batched``, ``repro.gcn.optim``).
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

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
    # The vertex mappings default to 64-row crossbars, whatever the
    # session's hardware, and a literal fixes them as surely;
    # build_update_plan defaults to the session's.
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


def test_the_trainers_take_only_what_a_run_sets():
    found = {}
    for target in TRAINING_SURFACE:
        module, _, qualname = target.partition(":")
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        found[target] = [name for name in _parameters(owner) if name != "self"]
    assert found == TRAINING_SURFACE
