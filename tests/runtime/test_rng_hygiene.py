"""Static RNG hygiene: no global numpy RNG, no stdlib ``random`` in src.

Determinism (and the byte-identical parallel sweep) rests on every piece
of randomness flowing from an explicit seed — ``np.random.default_rng``
generators or :meth:`repro.runtime.Session.rng` streams.  The legacy
global-state APIs (``np.random.seed`` / ``np.random.rand`` / the stdlib
``random`` module) would silently couple unrelated subsystems through
shared hidden state, so this test greps the source tree and fails on any
use outside the allowed construction surface.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# The explicit-seed construction surface; everything else on np.random is
# the legacy global-state API.
ALLOWED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "PCG64"}

NP_RANDOM = re.compile(r"\bnp\.random\.(\w+)|\bnumpy\.random\.(\w+)")
STDLIB_RANDOM = re.compile(
    r"^\s*(?:import\s+random\b|from\s+random\s+import\b)", re.MULTILINE,
)


def _source_files():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return files


def test_no_global_numpy_rng_in_src():
    offenders = []
    for path in _source_files():
        for match in NP_RANDOM.finditer(path.read_text()):
            attr = match.group(1) or match.group(2)
            if attr not in ALLOWED_NP_RANDOM:
                offenders.append(f"{path.relative_to(SRC)}: np.random.{attr}")
    assert not offenders, (
        "global numpy RNG use (seed all randomness explicitly via "
        "default_rng or Session.rng):\n" + "\n".join(offenders)
    )


def test_no_stdlib_random_in_src():
    offenders = [
        str(path.relative_to(SRC))
        for path in _source_files()
        if STDLIB_RANDOM.search(path.read_text())
    ]
    assert not offenders, (
        "stdlib `random` imported (use seeded numpy generators):\n"
        + "\n".join(offenders)
    )


# ----------------------------------------------------------------------
# Runtime hygiene of the replica-batched trainer: its randomness flows
# only through each replica's trainer stream and its GCN's model stream.
# Each test trains in a fresh-cache session, on the engine, not the memo.
# ----------------------------------------------------------------------
def _fleet_graph():
    from repro.graphs.generators import dc_sbm_graph

    return dc_sbm_graph(
        200, 3, 8.0, random_state=0, feature_dim=10, intra_ratio=0.9,
    )


@pytest.mark.usefixtures("fresh_cache")
def test_train_replicas_leaves_global_numpy_rng_untouched():
    import numpy as np

    from repro.gcn.batched import ReplicaSpec, train_replicas

    graph = _fleet_graph()
    before = np.random.get_state()[1].copy()
    train_replicas([
        ReplicaSpec(graph=graph, task="link", epochs=3, random_state=s)
        for s in range(3)
    ])
    after = np.random.get_state()[1]
    assert (before == after).all(), (
        "replica-batched training advanced the legacy global numpy RNG"
    )


@pytest.mark.usefixtures("fresh_cache")
def test_replica_stream_positions_match_serial_trainers():
    # After a batched run, every replica's trainer stream and model
    # stream must sit at the exact position its serial oracle's
    # generators end at — the strongest evidence the batched path drew
    # the same values in the same order.
    from repro.gcn.batched import BatchedLinkTrainer, BatchedNodeTrainer
    from tests.oracles.trainers import make_trainer

    graph = _fleet_graph()
    seeds = (0, 1, 2, 5)
    for task, engine_cls in (
        ("node", BatchedNodeTrainer), ("link", BatchedLinkTrainer),
    ):
        engine = engine_cls(graph, seeds)
        engine.train(4, [None] * len(seeds))
        for index, seed in enumerate(seeds):
            trainer = make_trainer(graph, task, random_state=seed)
            trainer.train(epochs=4)
            assert (
                engine._rngs[index].bit_generator.state
                == trainer._rng.bit_generator.state
            ), f"{task} replica {index}: trainer stream position diverged"
            assert (
                engine.models[index]._rng.bit_generator.state
                == trainer.model._rng.bit_generator.state
            ), f"{task} replica {index}: model stream position diverged"
