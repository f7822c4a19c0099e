"""SimulationBackend protocol: name lookup, session scoping, conformance.

The conformance tests run parametrically against every backend — any
future engine must satisfy them too: latency matrices are finite and
non-negative, adding replicas never slows a stage down, bigger workloads
cost more, serving costs are integer-ns and monotone in batch size, and
energy accounting stays positive under every engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators.catalog import gopim, serial
from repro.backends import (
    BACKEND_NAMES,
    EpochProgram,
    get_backend,
    resolve_backend,
)
from repro.errors import ConfigError, ExperimentError, PipelineError
from repro.graphs.generators import dc_sbm_graph
from repro.runtime import RunSpec, Session, current_session
from repro.stages.latency import StageTimingModel
from repro.stages.workload import Workload

BACKENDS = ("analytic", "trace")
#: Replica assignments no backend may price, for an n-stage chain.
INVALID_REPLICAS = {
    "zero": lambda n: 0,
    "negative": lambda n: -3,
    "a zero stage": lambda n: np.r_[np.ones(n - 1, dtype=np.int64), 0],
    "three counts": lambda n: np.full(3, 2, dtype=np.int64),
    "a matrix": lambda n: np.ones((1, n), dtype=np.int64),
}


@pytest.fixture
def timing(small_workload, small_config) -> StageTimingModel:
    return StageTimingModel(small_workload, small_config)


def current_backend_name() -> str:
    return current_session().spec.backend


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(BACKENDS) <= set(BACKEND_NAMES)

    def test_default_is_analytic(self):
        assert BACKEND_NAMES[0] == RunSpec().backend == "analytic"
        assert current_backend_name() == "analytic"
        assert resolve_backend(None) is get_backend("analytic")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown simulation backend"):
            get_backend("cycle-accurate")

    def test_resolve_none_is_ambient(self):
        assert resolve_backend(None) is get_backend(current_backend_name())
        with Session(RunSpec(backend="trace")).use():
            assert resolve_backend(None) is get_backend("trace")
        assert resolve_backend("trace") is get_backend("trace")
        trace = get_backend("trace")
        assert resolve_backend(trace) is trace

    def test_session_scope_restores(self):
        assert current_backend_name() == "analytic"
        session = Session(RunSpec(backend="trace"))
        with session.use() as entered:
            assert entered is session
            assert current_session() is session
            assert current_backend_name() == "trace"
        assert current_backend_name() == "analytic"

    def test_session_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with Session(RunSpec(backend="trace")).use():
                raise RuntimeError("boom")
        assert current_backend_name() == "analytic"

    def test_runspec_validates_eagerly(self):
        with pytest.raises(ConfigError):
            RunSpec(backend="nope")
        assert current_backend_name() == "analytic"


@pytest.mark.parametrize("name", BACKENDS)
class TestConformance:
    def test_matrix_shape_finite_nonnegative(self, name, timing):
        matrix = get_backend(name).stage_time_matrix(
            EpochProgram(timing=timing)
        )
        assert matrix.shape == (
            len(timing.stages), timing.workload.num_microbatches,
        )
        assert np.all(np.isfinite(matrix))
        assert np.all(matrix >= 0)

    def test_replicas_never_slow_a_stage_down(self, name, timing):
        engine = get_backend(name)
        one = engine.stage_time_matrix(EpochProgram(timing=timing))
        four = engine.stage_time_matrix(EpochProgram(
            timing=timing,
            replicas=np.full(len(timing.stages), 4, dtype=np.int64),
        ))
        assert np.all(four <= one)

    def test_bigger_workload_costs_more(self, name, small_config):
        engine = get_backend(name)
        totals = []
        for vertices in (200, 400):
            graph = dc_sbm_graph(
                num_vertices=vertices, num_communities=4,
                avg_degree=10.0, random_state=7, feature_dim=16,
                name=f"g{vertices}",
            )
            workload = Workload(
                graph=graph, layer_dims=[(16, 32), (32, 8)],
                micro_batch=32, name=f"g{vertices}",
            )
            timing = StageTimingModel(workload, small_config)
            totals.append(
                engine.stage_time_matrix(EpochProgram(timing=timing)).sum()
            )
        assert totals[1] > totals[0]

    def test_service_times_integer_and_monotone(self, name, serving_system):
        sizes = np.array([8, 16, 64, 256], dtype=np.int64)
        edges = sizes * 6
        times = get_backend(name).service_times_ns(
            serving_system, sizes, edges,
        )
        assert times.dtype == np.int64
        assert times.shape == (serving_system.num_stages, sizes.size)
        assert np.all(times >= 0)
        # Bigger batches (more requests and more edges) never get cheaper.
        assert np.all(np.diff(times, axis=1) >= 0)

    def test_simulate_epoch_record(self, name, timing):
        epoch = get_backend(name).simulate_epoch(EpochProgram(timing=timing))
        assert epoch.backend == name
        assert epoch.times_ns.shape == (
            len(timing.stages), timing.workload.num_microbatches,
        )
        # A pipeline can never beat the slowest stage's serial sum.
        assert (
            epoch.total_time_ns >= epoch.times_ns.sum(axis=1).max() - 1e-6
        )
        assert isinstance(epoch.stats, dict)

    @pytest.mark.parametrize("invalid", sorted(INVALID_REPLICAS))
    def test_invalid_replicas_rejected(self, name, timing, invalid):
        replicas = INVALID_REPLICAS[invalid](len(timing.stages))
        with pytest.raises(PipelineError, match="replicas must be"):
            get_backend(name).stage_time_matrix(
                EpochProgram(timing=timing, replicas=replicas),
            )

    def test_one_count_prices_every_stage(self, name, timing):
        engine = get_backend(name)
        scalar = engine.stage_time_matrix(
            EpochProgram(timing=timing, replicas=3),
        )
        vector = engine.stage_time_matrix(EpochProgram(
            timing=timing, replicas=np.full(len(timing.stages), 3),
        ))
        assert scalar.tobytes() == vector.tobytes()

    def test_accelerator_energy_non_negative(
        self, name, small_workload, small_config,
    ):
        report = gopim().run(small_workload, small_config, backend=name)
        assert report.backend == name
        assert report.total_time_ns > 0
        assert report.energy_pj > 0
        for key, value in report.energy.as_dict().items():
            assert value >= 0, key


class TestTraceVsAnalytic:
    def test_trace_entrywise_at_least_analytic(self, timing):
        replicas = np.full(len(timing.stages), 4, dtype=np.int64)
        program = EpochProgram(timing=timing, replicas=replicas)
        analytic = get_backend("analytic").stage_time_matrix(program)
        trace = get_backend("trace").stage_time_matrix(program)
        # Lane quantisation only rounds occupancy *up*.
        assert np.all(trace >= analytic - 1e-9)

    def test_serial_is_bitwise_identical(self, timing):
        # One lane divides its work exactly: ceil(n/1) == n/1, so the
        # trace replay collapses to the analytic law bit for bit.
        program = EpochProgram(timing=timing)
        analytic = get_backend("analytic").stage_time_matrix(program)
        trace = get_backend("trace").stage_time_matrix(program)
        np.testing.assert_array_equal(trace, analytic)

    def test_serial_reports_agree(self, small_workload, small_config):
        base = serial().run(small_workload, small_config, backend="analytic")
        traced = serial().run(small_workload, small_config, backend="trace")
        assert traced.total_time_ns == base.total_time_ns
        assert traced.energy_pj == base.energy_pj


class TestRunSpecBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(backend="bogus")

    def test_default_spec_hash_unchanged(self):
        # Pre-refactor payloads hashed without a backend key; the
        # default spec must keep hashing identically (stored golden
        # hashes reference it).
        assert RunSpec().spec_hash() == RunSpec(backend="analytic").spec_hash()
        assert RunSpec(backend="trace").spec_hash() != RunSpec().spec_hash()

    def test_round_trip_and_legacy_payload(self):
        spec = RunSpec(backend="trace")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        legacy = spec.to_dict()
        del legacy["backend"]
        assert RunSpec.from_dict(legacy).backend == "analytic"

    def test_session_provenance_carries_backend(self):
        session = Session(RunSpec(backend="trace"))
        assert session.spec.backend == "trace"
        assert session.provenance()["backend"] == "trace"
        with session.use():
            assert current_backend_name() == "trace"
        assert current_backend_name() == "analytic"


class TestUniformBackend:
    @staticmethod
    def _result(backend):
        from repro.experiments.harness import ExperimentResult

        result = ExperimentResult(experiment_id="x", title="x")
        result.metadata["provenance"] = {"backend": backend}
        return result

    def test_mixed_backends_refused(self):
        from repro.experiments.harness import ensure_uniform_backend

        with pytest.raises(ExperimentError, match="mixed simulation"):
            ensure_uniform_backend(
                [self._result("analytic"), self._result("trace")],
            )

    def test_require_pins_engine(self):
        from repro.experiments.harness import ensure_uniform_backend

        results = [self._result("trace"), self._result("trace")]
        assert ensure_uniform_backend(results) == "trace"
        with pytest.raises(ExperimentError, match="requires backend"):
            ensure_uniform_backend(results, require="analytic")

    def test_legacy_results_count_as_analytic(self):
        from repro.experiments.harness import (
            ExperimentResult,
            ensure_uniform_backend,
        )

        legacy = ExperimentResult(experiment_id="x", title="x")
        assert ensure_uniform_backend([legacy]) == "analytic"
