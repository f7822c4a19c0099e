"""Fast-tier tolerance harness: per-kernel budgets + end-to-end invariants.

The relaxed-identity tier (MODEL.md section 11) promises each fast
kernel stays within its documented relative-error budget of the exact
path, and that whole experiments keep their *conclusions*: orderings,
decisions, and accuracies move by noise, not by sign.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.harness import (
    ensure_uniform_numerics,
    result_numerics,
)
from repro.gcn.batched import ReplicaSpec, train_replicas
from repro.gcn.losses import EdgeScatter
from repro.graphs.generators import dc_sbm_graph
from repro.hardware.engine import segment_leftfold_sum, segment_reduceat_sum
from repro.mapping.selective import build_update_plan
from repro.perf import kernels
from repro.perf.cache import ArtifactCache
from repro.perf.kernels import ERROR_BUDGETS, KernelTuner, numerics
from repro.runtime.session import Session
from repro.runtime.spec import RunSpec


@pytest.fixture(autouse=True)
def _pristine_mode_and_tuner():
    previous_mode = kernels.set_numerics_mode("exact")
    previous_tuner = kernels.set_tuner(KernelTuner(ArtifactCache(disk_dir="")))
    yield
    kernels.set_numerics_mode(previous_mode)
    kernels.set_tuner(previous_tuner)


def rel_err(fast: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(exact))), 1e-12)
    return float(np.max(np.abs(
        np.asarray(fast, dtype=np.float64) - np.asarray(exact, np.float64)
    ))) / scale


@pytest.fixture(scope="module")
def graph():
    return dc_sbm_graph(
        512, 3, 16.0, random_state=5, feature_dim=64,
        feature_noise=4.0, intra_ratio=0.7,
    )


# ----------------------------------------------------------------------
# Per-kernel budgets
# ----------------------------------------------------------------------
class TestKernelBudgets:
    def test_spmm_strategies_within_budget(self, graph):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(graph.num_vertices, 32)).astype(np.float32)
        exact = graph._normalized_matmul_exact(x)
        budget = ERROR_BUDGETS["spmm_normalized"]
        for name, strategy in kernels.strategies("spmm_normalized").items():
            out = strategy(graph, x)
            assert rel_err(out, exact) <= budget, name

    def test_fast_dispatch_within_budget(self, graph):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(graph.num_vertices, 16)).astype(np.float32)
        exact = graph.normalized_adjacency_matmul(x)
        with numerics("fast"):
            fast = graph.normalized_adjacency_matmul(x)
        assert rel_err(fast, exact) <= ERROR_BUDGETS["spmm_normalized"]

    def test_segment_fold_within_budget(self, graph):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(graph.num_arcs, 8)).astype(np.float32)
        init = rng.normal(
            size=(graph.num_vertices, 8)
        ).astype(np.float32)
        exact = segment_leftfold_sum(graph.indptr, rows, init)
        fast = segment_reduceat_sum(graph.indptr, rows, init)
        assert rel_err(fast, exact) <= ERROR_BUDGETS["segment_fold"]

    def test_segment_fold_handles_empty_segments(self):
        indptr = np.array([0, 0, 2, 2, 3], dtype=np.int64)
        rows = np.arange(6, dtype=np.float32).reshape(3, 2)
        init = np.ones((4, 2), dtype=np.float32)
        exact = segment_leftfold_sum(indptr, rows, init)
        fast = segment_reduceat_sum(indptr, rows, init)
        np.testing.assert_array_equal(fast, exact)

    def test_edge_scatter_float32_within_budget(self, graph):
        rng = np.random.default_rng(3)
        edges = graph.edge_list()[:256]
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = rng.normal(size=rows.size)
        emb = rng.normal(
            size=(graph.num_vertices, 16)
        ).astype(np.float32)
        exact_plan = EdgeScatter(rows, cols, graph.num_vertices)
        emb64 = np.empty(emb.shape, dtype=np.float64)
        exact = exact_plan.apply(
            data.astype(np.float64), emb, emb64_buf=emb64,
        )
        fast_plan = EdgeScatter(
            rows, cols, graph.num_vertices, dtype=np.float32,
        )
        fast = fast_plan.apply(data.astype(np.float32), emb)
        assert fast.dtype == np.float32
        assert rel_err(fast, exact) <= ERROR_BUDGETS["edge_scatter"]


# ----------------------------------------------------------------------
# End-to-end invariants
# ----------------------------------------------------------------------
def _fleet(graph, task):
    plan = build_update_plan(graph, theta=0.2)
    return [
        ReplicaSpec(
            graph=graph, task=task, epochs=4, random_state=0,
            update_plan=None if r % 2 == 0 else plan,
            hidden_dim=32, embedding_dim=32,
        )
        for r in range(4)
    ]


class TestEndToEnd:
    @pytest.mark.parametrize("task", ["link", "node"])
    def test_training_losses_and_metrics_track_exact(self, graph, task):
        exact = train_replicas(
            _fleet(graph, task), session=Session(RunSpec()),
        )
        fast = train_replicas(
            _fleet(graph, task), session=Session(RunSpec(numerics="fast")),
        )
        budget_key = "link_bce" if task == "link" else "cross_entropy"
        for e, f in zip(exact, fast):
            le = np.asarray(e.losses)
            lf = np.asarray(f.losses)
            rel = np.max(np.abs(le - lf) / np.maximum(np.abs(le), 1e-9))
            # End-to-end drift compounds across epochs/layers; allow the
            # per-kernel budget a small integration factor.
            assert rel <= 10 * ERROR_BUDGETS[budget_key]
            for a, b in zip(e.test_metrics, f.test_metrics):
                assert abs(a - b) <= 0.02

    def test_experiment_conclusions_preserved(self):
        from repro.experiments.registry import run_all

        [exact] = run_all(quick=True, only=["abl-motivation"])
        [fast] = run_all(
            quick=True, only=["abl-motivation"], numerics="fast",
        )
        assert result_numerics(exact) == "exact"
        assert result_numerics(fast) == "fast"
        assert len(exact.rows) == len(fast.rows)
        for row_e, row_f in zip(exact.rows, fast.rows):
            assert set(row_e) == set(row_f)
            for key, val in row_e.items():
                if isinstance(val, str):
                    assert row_f[key] == val
        # Orderings (which configuration wins) must agree column by
        # column: ranking by any numeric column is tier-invariant.
        for key, val in exact.rows[0].items():
            if not isinstance(val, (int, float)):
                continue
            order_e = np.argsort(
                [row[key] for row in exact.rows], kind="stable",
            )
            order_f = np.argsort(
                [row[key] for row in fast.rows], kind="stable",
            )
            np.testing.assert_array_equal(order_e, order_f)


# ----------------------------------------------------------------------
# Provenance + mixing refusal
# ----------------------------------------------------------------------
class TestProvenance:
    def test_session_stamps_numerics(self):
        from repro.experiments.registry import run_all

        [result] = run_all(quick=True, only=["fig05"], numerics="fast")
        assert result.metadata["provenance"]["numerics"] == "fast"
        assert result_numerics(result) == "fast"

    def test_spec_hash_backcompat(self):
        # Exact specs hash as they always did; fast specs hash apart.
        exact = RunSpec()
        assert exact.spec_hash() == RunSpec(numerics="exact").spec_hash()
        assert RunSpec(numerics="fast").spec_hash() != exact.spec_hash()

    def test_mixed_tiers_refused(self):
        from repro.experiments.harness import ExperimentResult

        def stamped(tier):
            return ExperimentResult(
                experiment_id="x", title="x", rows=[{"a": 1}],
                metadata={"provenance": {"numerics": tier}},
            )

        ensure_uniform_numerics([stamped("exact"), stamped("exact")])
        with pytest.raises(ExperimentError):
            ensure_uniform_numerics([stamped("exact"), stamped("fast")])
        with pytest.raises(ExperimentError):
            ensure_uniform_numerics([stamped("fast")], require="exact")
        assert ensure_uniform_numerics(
            [stamped("fast")], require="fast",
        ) == "fast"
