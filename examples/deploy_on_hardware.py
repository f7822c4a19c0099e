#!/usr/bin/env python3
"""Deploy a trained GCN onto functional crossbars (NeuroSim-style).

The full inference-on-hardware path:

1. train a GCN in software (numpy);
2. checkpoint it to disk and restore into a fresh model;
3. program the weights onto functional crossbar grids and run the whole
   forward pass through them (one wordline activation per edge);
4. compare hardware vs software accuracy at several cell precisions and
   under analog read noise.

Usage::

    python examples/deploy_on_hardware.py [num_vertices] [epochs]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.gcn import (
    GCN,
    NodeClassificationTrainer,
    accuracy,
    infer,
    restore_model,
    save_checkpoint,
)
from repro.graphs import dc_sbm_graph
from repro.hardware import FunctionalGCN, HardwareConfig


def main() -> None:
    num_vertices = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 30

    graph = dc_sbm_graph(
        num_vertices, 3, 6.0, random_state=0,
        feature_dim=12, feature_noise=4.0, intra_ratio=0.7,
    )
    print(f"graph: {graph}")
    trainer = NodeClassificationTrainer(graph, hidden_dim=16, random_state=0)
    print(f"training {epochs} epochs in software...")
    history = trainer.train(epochs=epochs)
    print(f"  software best accuracy: {history.best_test_metric:.1%}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_checkpoint(trainer.model.params, trainer.model.layer_dims, path)
        restored = GCN(trainer.model.layer_dims, random_state=123)
        restore_model(restored, path)
        print(f"checkpoint round-trip via {path.name}: ok")

    labels = graph.labels
    test_idx = trainer.test_idx
    sw_logits = infer(restored, graph, graph.features)
    sw_acc = accuracy(sw_logits[test_idx], labels[test_idx])
    print(f"\nsoftware inference accuracy: {sw_acc:.1%}")

    print("\nhardware deployments (functional crossbars):")
    for bits, noise in ((4, 0.0), (8, 0.0), (2, 0.0), (4, 0.05)):
        config = HardwareConfig(weight_bits=bits)
        hardware = FunctionalGCN(
            restored, config=config, quantize=True,
            read_noise_sigma=noise,
        )
        hw_logits = hardware.forward(graph, graph.features)
        hw_acc = accuracy(hw_logits[test_idx], labels[test_idx])
        stats = hardware.stats()
        label = f"{bits}-bit cells" + (f", noise {noise:.0%}" if noise else "")
        print(
            f"  {label:<24} accuracy {hw_acc:.1%} "
            f"({stats.mvm_reads:,} activations, "
            f"{stats.row_writes:,} row writes, "
            f"{hardware.total_crossbars()} crossbars)"
        )


if __name__ == "__main__":
    main()
