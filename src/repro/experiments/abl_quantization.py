"""Ablation: cell-precision DSE through the functional engine.

Trains a GCN in software, deploys it on functional crossbar grids at
several weight precisions (cells per value follow Table II's 2 bits/cell),
and measures *inference accuracy on the hardware* — the NeuroSim-style
question the analytic model cannot answer.  The default 4-bit storage
(2 cells/value, matching Table VI's crossbar counts) should track the
software accuracy closely; 2-bit storage visibly degrades.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.gcn.batched import infer
from repro.gcn.losses import accuracy
from repro.gcn.trainer import NodeClassificationTrainer
from repro.graphs.generators import dc_sbm_graph
from repro.hardware.functional_gcn import FunctionalGCN
from repro.experiments.harness import ExperimentResult
from repro.runtime import current_session, experiment

BIT_GRID = (2, 4, 8, 16)


@experiment(
    "abl-quantization",
    title="Cell-precision DSE: hardware inference accuracy",
    cost_hint=0.013,
    quick={"weight_bits": (2, 4), "epochs": 10},
    order=230,
)
def run(
    weight_bits: Sequence[int] = BIT_GRID,
    num_vertices: int = 96,
    epochs: int = 30,
    seed: int = 0,
) -> ExperimentResult:
    """Hardware inference accuracy vs stored weight precision."""
    if num_vertices < 16:
        raise ExperimentError("num_vertices too small for a split")
    # A small, moderately hard graph the functional engine can afford.
    graph = dc_sbm_graph(
        num_vertices, 3, 6.0, random_state=seed,
        feature_dim=12, feature_noise=4.0, intra_ratio=0.7,
    )
    trainer = NodeClassificationTrainer(
        graph, hidden_dim=16, random_state=seed,
    )
    trainer.train(epochs=epochs)
    model = trainer.model
    labels = graph.labels
    test_idx = trainer.test_idx

    sw_logits = infer(model, graph, graph.features)
    sw_acc = accuracy(sw_logits[test_idx], labels[test_idx])

    result = ExperimentResult(
        experiment_id="abl-quantization",
        title="Cell-precision DSE: hardware inference accuracy",
        notes=(
            "Functional crossbar deployment of a software-trained GCN. "
            "Table II's 4-bit storage (2 cells/value) should match the "
            "software accuracy; 2-bit storage degrades."
        ),
    )
    result.rows.append({
        "precision": "software (fp32)",
        "test accuracy": sw_acc,
        "gap vs software": 0.0,
    })
    for bits in weight_bits:
        config = current_session().config.scaled(weight_bits=bits)
        hardware = FunctionalGCN(model, config=config, quantize=True)
        hw_logits = hardware.forward(graph, graph.features)
        hw_acc = accuracy(hw_logits[test_idx], labels[test_idx])
        result.rows.append({
            "precision": f"{bits}-bit cells "
                         f"({bits // config.bits_per_cell} cells/value)",
            "test accuracy": hw_acc,
            "gap vs software": sw_acc - hw_acc,
        })
    return result
