"""Arrival-process properties: unit mean, monotonicity, burstiness."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.serving.arrivals import (
    arrival_times_ns,
    unit_mmpp,
    unit_poisson,
    unit_trace,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestUnitPatterns:
    def test_poisson_unit_mean_in_expectation(self):
        inter = unit_poisson(200_000, rng())
        assert inter.shape == (200_000,)
        assert np.all(inter >= 0)
        assert inter.mean() == pytest.approx(1.0, rel=0.01)

    def test_mmpp_exact_unit_mean(self):
        inter = unit_mmpp(50_000, rng())
        assert inter.shape == (50_000,)
        assert np.all(inter >= 0)
        assert inter.mean() == pytest.approx(1.0, abs=1e-12)

    def test_trace_exact_unit_mean_and_deterministic(self):
        a = unit_trace(10_000)
        b = unit_trace(10_000)
        assert np.array_equal(a, b)
        assert a.mean() == pytest.approx(1.0, abs=1e-12)

    def test_mmpp_is_burstier_than_poisson(self):
        # Coefficient of variation: ~1 for exponential gaps, higher for
        # the phase-modulated process.
        po = unit_poisson(100_000, rng(1))
        mm = unit_mmpp(100_000, rng(1))
        cv_po = po.std() / po.mean()
        cv_mm = mm.std() / mm.mean()
        assert cv_po == pytest.approx(1.0, rel=0.02)
        assert cv_mm > cv_po * 1.1

    def test_mmpp_deterministic_per_seed(self):
        a = unit_mmpp(5_000, rng(7))
        b = unit_mmpp(5_000, rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kwargs", [
        {"burstiness": np.nan}, {"burstiness": np.inf},
    ])
    def test_mmpp_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ExperimentError, match="finite"):
            unit_mmpp(100, rng(), **kwargs)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            unit_poisson(0, rng())
        with pytest.raises(ExperimentError):
            unit_mmpp(100, rng(), burstiness=1.0)
        with pytest.raises(ExperimentError):
            unit_trace(100, trace=(1.0, -1.0))


class TestRateScaling:
    def test_timestamps_are_nondecreasing_int64(self):
        times = arrival_times_ns(unit_poisson(10_000, rng()), 1e6)
        assert times.dtype == np.int64
        assert np.all(np.diff(times) >= 0)

    def test_rate_sets_mean_gap(self):
        times = arrival_times_ns(unit_poisson(100_000, rng()), 2e6)
        mean_gap = np.diff(times).mean()
        assert mean_gap == pytest.approx(500.0, rel=0.02)  # 1/2e6 s

    def test_same_pattern_scales_proportionally(self):
        # The load-sweep contract: one pattern, different compressions.
        pattern = unit_mmpp(10_000, rng(3))
        slow = arrival_times_ns(pattern, 1e6)
        fast = arrival_times_ns(pattern, 2e6)
        assert slow[-1] > fast[-1]
        ratio = slow[-1] / fast[-1]
        assert ratio == pytest.approx(2.0, rel=0.001)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            arrival_times_ns(np.ones(10), 0.0)
        with pytest.raises(ExperimentError):
            arrival_times_ns(np.array([1.0, -0.5]), 1e6)

    @pytest.mark.parametrize("rate_rps", [np.inf, np.nan, -np.inf])
    def test_non_finite_rate_raises(self, rate_rps):
        # An infinite rate would put every arrival at t=0.
        with pytest.raises(ExperimentError, match="positive and finite"):
            arrival_times_ns(np.ones(3), rate_rps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gap_raises(self, bad):
        with pytest.raises(ExperimentError, match="finite"):
            arrival_times_ns(np.array([1.0, bad, 1.0]), 1e6)

    @pytest.mark.parametrize("rate_rps", [1e-10, 5e-324])
    def test_timeline_beyond_int64_raises(self, rate_rps):
        # 1e19 ns gaps, and an infinite scale: both would wrap int64.
        with pytest.raises(ExperimentError, match="int64"):
            arrival_times_ns(np.ones(3), rate_rps)
