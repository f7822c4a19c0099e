"""Bit-for-bit equivalence of the vectorized functional hardware paths.

The perf PR rebuilt ``Crossbar.mvm_batch`` / ``MappedMatrix.mvm_batch``,
added batched row reads, and replaced the per-edge one-hot aggregation
with a CSR-segment gather — all promising *exact* equality with the
retained per-row and per-edge loops in ``tests/oracles/functional.py``:
same outputs, same seeded noise stream consumption, same
``CrossbarStats`` counters.  These tests pin that
contract on seeded small problems, noise and quantisation on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MappingError
from repro.gcn.model import GCN
from repro.graphs.generators import dc_sbm_graph
from repro.hardware.engine import MappedMatrix, segment_leftfold_sum
from repro.hardware.functional_gcn import FunctionalGCN
from tests.oracles.functional import PerEdgeFunctionalGCN, mvm_batch_reference


def _stats_tuple(stats):
    return (stats.mvm_reads, stats.row_writes, stats.busy_ns)


def _graph(n=120, seed=3):
    return dc_sbm_graph(
        num_vertices=n, num_communities=3, avg_degree=6.0,
        random_state=seed, name="vec-equiv",
    )


@pytest.mark.parametrize("quantize", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
class TestMvmBatchEquivalence:
    def test_outputs_and_stats_match_reference(self, quantize, sigma):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((150, 40)).astype(np.float32)
        inputs = rng.standard_normal((23, 150)).astype(np.float32)
        inputs[4] = 0.0           # a fully zero input row
        inputs[:, 64:128] = 0.0   # a fully zero row-tile segment
        vec = MappedMatrix(matrix, quantize=quantize,
                           read_noise_sigma=sigma, random_state=9)
        ref = MappedMatrix(matrix, quantize=quantize,
                           read_noise_sigma=sigma, random_state=9)
        out_vec = vec.mvm_batch(inputs)
        out_ref = mvm_batch_reference(ref, inputs)
        assert np.array_equal(out_vec, out_ref)
        assert _stats_tuple(vec.stats()) == _stats_tuple(ref.stats())

    def test_repeated_batches_consume_same_stream(self, quantize, sigma):
        # Stream position must advance identically, so a *second* batch
        # also matches (catches off-by-one noise draws in the first).
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((70, 33)).astype(np.float32)
        inputs = rng.standard_normal((11, 70)).astype(np.float32)
        vec = MappedMatrix(matrix, quantize=quantize,
                           read_noise_sigma=sigma, random_state=2)
        ref = MappedMatrix(matrix, quantize=quantize,
                           read_noise_sigma=sigma, random_state=2)
        vec.mvm_batch(inputs)
        mvm_batch_reference(ref, inputs)
        assert np.array_equal(
            vec.mvm_batch(inputs * 2.0),
            mvm_batch_reference(ref, inputs * 2.0),
        )


class TestReadRows:
    def test_matches_one_hot_mvm_sequence(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((130, 20)).astype(np.float32)
        vec = MappedMatrix(matrix, read_noise_sigma=0.04, random_state=5)
        ref = MappedMatrix(matrix, read_noise_sigma=0.04, random_state=5)
        ids = np.array([0, 129, 64, 64, 3, 77], dtype=np.int64)
        got = vec.read_rows(ids)
        expected = np.stack([
            ref.mvm(np.eye(130, dtype=np.float32)[i]) for i in ids
        ])
        assert np.array_equal(got, expected)
        assert _stats_tuple(vec.stats()) == _stats_tuple(ref.stats())

    def test_empty_ids(self):
        matrix = np.ones((10, 4), dtype=np.float32)
        mapped = MappedMatrix(matrix)
        out = mapped.read_rows(np.array([], dtype=np.int64))
        assert out.shape == (0, 4)

    def test_out_of_range_ids_rejected(self):
        mapped = MappedMatrix(np.ones((10, 4), dtype=np.float32))
        with pytest.raises(MappingError):
            mapped.read_rows(np.array([10]))
        with pytest.raises(MappingError):
            mapped.read_rows(np.array([-1]))


class TestSegmentLeftfoldSum:
    def test_matches_sequential_python_fold(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 7)).astype(np.float32)
        indptr = np.array([0, 4, 4, 17, 50], dtype=np.int64)
        initial = rng.standard_normal((4, 7)).astype(np.float32)
        got = segment_leftfold_sum(indptr, rows, initial)
        for i in range(4):
            acc = initial[i].copy()
            for j in range(indptr[i], indptr[i + 1]):
                acc += rows[j]
            assert np.array_equal(got[i], acc)

    def test_initial_not_mutated(self):
        rows = np.ones((3, 2), dtype=np.float32)
        initial = np.zeros((1, 2), dtype=np.float32)
        segment_leftfold_sum(np.array([0, 3]), rows, initial)
        assert np.array_equal(initial, np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MappingError):
            segment_leftfold_sum(
                np.array([0, 1]), np.ones((1, 2), dtype=np.float32),
                np.zeros((2, 2), dtype=np.float32),
            )


class TestFunctionalForwardEquivalence:
    @pytest.mark.parametrize("quantize,sigma", [
        (False, 0.0), (True, 0.0), (False, 0.05), (True, 0.05),
    ])
    def test_forward_bit_identical(self, quantize, sigma):
        graph = _graph(n=90, seed=7)
        rng = np.random.default_rng(6)
        features = rng.standard_normal(
            (graph.num_vertices, 12)
        ).astype(np.float32)
        model = GCN([(12, 10), (10, 6)], random_state=1)
        vec = FunctionalGCN(model, quantize=quantize,
                            read_noise_sigma=sigma, random_state=13)
        ref = PerEdgeFunctionalGCN(model, quantize=quantize,
                                   read_noise_sigma=sigma, random_state=13)
        out_vec = vec.forward(graph, features)
        out_ref = ref.forward(graph, features)
        assert np.array_equal(out_vec, out_ref)
        assert _stats_tuple(vec.stats()) == _stats_tuple(ref.stats())

    def test_phase_times_accumulate(self):
        graph = _graph(n=60, seed=9)
        rng = np.random.default_rng(7)
        features = rng.standard_normal(
            (graph.num_vertices, 8)
        ).astype(np.float32)
        model = GCN([(8, 6)], random_state=2)
        functional = FunctionalGCN(model, random_state=3)
        assert functional.phase_times_s == {
            "combination": 0.0, "program": 0.0, "aggregation": 0.0,
        }
        functional.forward(graph, features)
        times = functional.phase_times_s
        assert set(times) == {"combination", "program", "aggregation"}
        assert all(t >= 0.0 for t in times.values())
        assert sum(times.values()) > 0.0
