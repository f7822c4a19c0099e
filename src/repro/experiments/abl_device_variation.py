"""Ablation: ReRAM device variation (analog MVM noise) vs accuracy.

NeuroSim-class simulators expose a conductance-variation knob; the paper's
evaluation assumes ideal analog compute.  This experiment restores the
knob: Gaussian relative noise on every aggregation output (training *and*
inference — the hardware is always noisy) swept over realistic sigmas,
plus the functional engine's raw per-MVM output error at each sigma as a
microbenchmark.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment
from repro.gcn.batched import ReplicaSpec, train_replicas
from repro.graphs.datasets import get_spec
from repro.hardware.engine import MappedMatrix

SIGMA_GRID = (0.0, 0.01, 0.02, 0.05, 0.1)


def mvm_relative_error(sigma: float, seed: int = 0) -> float:
    """Median relative error of one noisy MVM through the engine,
    programmed on the current session's crossbars."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(128, 32)).astype(np.float32)
    mapped = MappedMatrix(
        weights, current_session().config,
        read_noise_sigma=sigma, random_state=seed,
    )
    x = rng.normal(size=128).astype(np.float32)
    exact = x @ weights
    noisy = mapped.mvm(x)
    scale = np.maximum(np.abs(exact), 1e-6)
    return float(np.median(np.abs(noisy - exact) / scale))


@experiment(
    "abl-variation",
    title="Device variation: accuracy vs analog noise sigma",
    datasets=("arxiv",),
    cost_hint=0.17,
    quick={"epochs": 8, "sigmas": (0.0, 0.05)},
    order=170,
)
def run(
    dataset: str = "arxiv",
    sigmas: Sequence[float] = SIGMA_GRID,
    epochs: int = 25,
    seed: int = 0,
) -> ExperimentResult:
    """Accuracy and raw MVM error vs device-variation sigma."""
    spec = get_spec(dataset)
    graph = current_session().graph(dataset, seed=seed)
    result = ExperimentResult(
        experiment_id="abl-variation",
        title=f"Device variation: accuracy vs analog noise sigma ({dataset})",
        notes=(
            "GCN training is famously noise-tolerant: a few percent of "
            "relative MVM noise should cost little accuracy, degrading "
            "visibly only near sigma ~ 10%."
        ),
    )
    # Each sigma changes the group key, so every replica trains as a
    # fleet of one.
    runs = train_replicas(
        [
            ReplicaSpec(
                graph=graph, task=spec.task, epochs=epochs,
                random_state=seed, analog_noise_sigma=sigma,
            )
            for sigma in sigmas
        ],
    )
    for sigma, run_result in zip(sigmas, runs):
        result.rows.append({
            "sigma": sigma,
            "best accuracy": run_result.best_test_metric,
            "median MVM rel. error": mvm_relative_error(sigma, seed=seed),
        })
    return result
