"""Crossbar functional + cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import MappingError
from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.crossbar import Crossbar, CrossbarStats, quantize_symmetric
from tests.oracles.functional import crossbar_mvm_reference


def mvm(crossbar, vector):
    """One matrix-vector multiply: a batch of one row."""
    return crossbar.mvm_batch(np.asarray(vector, dtype=np.float32)[None, :])[0]


def test_program_and_mvm_exact():
    xb = Crossbar()
    matrix = np.arange(12, dtype=np.float32).reshape(4, 3)
    latency = xb.program(matrix)
    assert latency == pytest.approx(4 * DEFAULT_CONFIG.row_write_latency_ns)
    vec = np.array([1.0, 0.0, 2.0, 0.0])
    out = mvm(xb, vec)
    expected = vec @ matrix
    np.testing.assert_allclose(out[:3], expected)
    np.testing.assert_allclose(out[3:], 0.0)


def test_mvm_pads_short_input():
    xb = Crossbar()
    xb.program(np.eye(4, dtype=np.float32))
    out = mvm(xb, [5.0, 6.0])
    assert out[0] == 5.0 and out[1] == 6.0


def test_mvm_batch_matches_loop():
    # Bit for bit: outputs, the noise stream and the event counters.
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(8, 5)).astype(np.float32)
    for sigma in (0.0, 0.05):
        batched = Crossbar(read_noise_sigma=sigma, random_state=3)
        looped = Crossbar(read_noise_sigma=sigma, random_state=3)
        batched.program(matrix)
        looped.program(matrix)
        for rows in (6, 1):
            inputs = rng.normal(size=(rows, 8)).astype(np.float32)
            batch = batched.mvm_batch(inputs)
            loop = np.stack([crossbar_mvm_reference(looped, r) for r in inputs])
            assert np.array_equal(batch, loop)
        assert batched.stats == looped.stats


def test_stats_accounting():
    xb = Crossbar()
    xb.program(np.ones((3, 2), dtype=np.float32))
    mvm(xb, np.ones(3))
    xb.mvm_batch(np.ones((5, 3)))
    assert xb.stats.row_writes == 3
    assert xb.stats.mvm_reads == 6
    expected_busy = (
        3 * DEFAULT_CONFIG.row_write_latency_ns
        + 6 * DEFAULT_CONFIG.mvm_latency_ns
    )
    assert xb.stats.busy_ns == pytest.approx(expected_busy)


def test_write_rows_partial_update():
    xb = Crossbar()
    xb.program(np.ones((4, 2), dtype=np.float32))
    xb.write_rows(np.array([1]), np.array([[9.0, 9.0]], dtype=np.float32))
    assert xb.values[1, 0] == 9.0
    assert xb.values[0, 0] == 1.0


def test_size_violations():
    xb = Crossbar()
    with pytest.raises(MappingError):
        xb.program(np.ones((65, 2)))
    with pytest.raises(MappingError):
        xb.program(np.ones((2, 33)))
    with pytest.raises(MappingError):
        mvm(xb, np.ones(65))
    with pytest.raises(MappingError):
        xb.write_rows(np.array([64]), np.ones((1, 2)))


def test_reset():
    xb = Crossbar()
    xb.program(np.ones((2, 2), dtype=np.float32))
    xb.reset()
    assert xb.stats.row_writes == 0
    assert np.all(xb.values == 0.0)


def test_stats_merge_and_copy():
    a = CrossbarStats(mvm_reads=2, row_writes=3, busy_ns=10.0)
    b = CrossbarStats(mvm_reads=1, row_writes=1, busy_ns=5.0)
    a.merge(b)
    assert (a.mvm_reads, a.row_writes, a.busy_ns) == (3, 4, 15.0)
    c = a.copy()
    c.mvm_reads = 99
    assert a.mvm_reads == 3


def test_quantize_symmetric_zero_and_error_bound():
    zeros = np.zeros(5, dtype=np.float32)
    np.testing.assert_array_equal(quantize_symmetric(zeros, 8), zeros)
    with pytest.raises(MappingError):
        quantize_symmetric(zeros, 0)


@given(arrays(np.float32, (4, 4),
              elements=st.floats(-100, 100, width=32)))
@settings(max_examples=50, deadline=None)
def test_quantization_error_bounded(matrix):
    bits = 8
    quantised = quantize_symmetric(matrix, bits)
    max_abs = float(np.max(np.abs(matrix)))
    if max_abs > 0:
        step = max_abs / (2 ** (bits - 1) - 1)
        assert np.max(np.abs(quantised - matrix)) <= step / 2 + 1e-4


def test_quantized_crossbar_close_to_exact():
    cfg = DEFAULT_CONFIG.scaled(weight_bits=8)
    exact = Crossbar(cfg)
    quant = Crossbar(cfg, quantize=True)
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(16, 8)).astype(np.float32)
    exact.program(matrix)
    quant.program(matrix)
    vec = rng.normal(size=16).astype(np.float32)
    np.testing.assert_allclose(
        mvm(quant, vec)[:8], mvm(exact, vec)[:8], rtol=0.05, atol=0.5,
    )


def test_read_noise_validation_and_determinism():
    with pytest.raises(MappingError):
        Crossbar(read_noise_sigma=-0.1)
    a = Crossbar(read_noise_sigma=0.05, random_state=7)
    b = Crossbar(read_noise_sigma=0.05, random_state=7)
    matrix = np.ones((4, 4), dtype=np.float32)
    a.program(matrix)
    b.program(matrix)
    vec = np.ones(4, dtype=np.float32)
    np.testing.assert_allclose(mvm(a, vec), mvm(b, vec))


def test_read_noise_perturbs_but_tracks():
    clean = Crossbar()
    noisy = Crossbar(read_noise_sigma=0.02, random_state=0)
    matrix = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
    clean.program(matrix)
    noisy.program(matrix)
    vec = np.ones(8, dtype=np.float32)
    exact = mvm(clean, vec)
    out = mvm(noisy, vec)
    assert not np.allclose(out, exact)
    np.testing.assert_allclose(out, exact, rtol=0.2, atol=1e-3)
