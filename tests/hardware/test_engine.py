"""Functional engine: numerics match numpy, costs match the analytic model."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.engine import MappedMatrix


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(0)
    return rng.normal(size=(100, 48)).astype(np.float32)


def test_mapped_matrix_structure(weights):
    mapped = MappedMatrix(weights)
    assert mapped.shape == (100, 48)
    # 100 rows -> 2 row tiles; 48 cols -> 2 col tiles of 32 values.
    assert mapped.plan.row_tiles == 2
    assert mapped.plan.col_tiles == 2
    assert mapped.num_crossbars == 4
    # Identity inputs read each programmed row back through the grid.
    np.testing.assert_allclose(
        mapped.mvm_batch(np.eye(100, dtype=np.float32)), weights,
        rtol=1e-6,
    )


def test_mvm_matches_numpy(weights):
    mapped = MappedMatrix(weights)
    rng = np.random.default_rng(1)
    x = rng.normal(size=100).astype(np.float32)
    np.testing.assert_allclose(mapped.mvm_batch(x[None, :])[0], x @ weights,
                               rtol=1e-3, atol=1e-3)


def test_mvm_batch_matches_numpy(weights):
    mapped = MappedMatrix(weights)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 100)).astype(np.float32)
    np.testing.assert_allclose(mapped.mvm_batch(x), x @ weights,
                               rtol=1e-3, atol=1e-3)


def test_zero_segments_skip_activations(weights):
    mapped = MappedMatrix(weights)
    before = mapped.stats().mvm_reads
    x = np.zeros(100, dtype=np.float32)
    x[:4] = 1.0  # only the first row tile has non-zero input
    mapped.mvm_batch(x[None, :])
    delta = mapped.stats().mvm_reads - before
    assert delta == mapped.plan.col_tiles  # one activation per col tile


def test_program_latency_is_serial_per_crossbar(weights):
    mapped = MappedMatrix(weights)
    # Busiest tile programs min(rows, 64) rows serially.
    expected = 64 * DEFAULT_CONFIG.row_write_latency_ns
    assert mapped.program_latency_ns == pytest.approx(expected)


def test_mvm_input_length_checked(weights):
    mapped = MappedMatrix(weights)
    with pytest.raises(MappingError):
        mapped.mvm_batch(np.zeros((1, 99)))
    with pytest.raises(MappingError):
        MappedMatrix(np.zeros((0, 3)))
