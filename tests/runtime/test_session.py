"""RunSpec/Session semantics: hashing, resolution, determinism, and
the run context (``Session.use`` / ``current_session``)."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.backends import resolve_backend
from repro.errors import ConfigError, ExperimentError
from repro.perf.cache import ArtifactCache, get_cache
from repro.runtime import (
    EXPERIMENT_ARRAY_BYTES,
    RunSpec,
    Session,
    current_session,
    stream_seed,
)


def _rows_bytes(result):
    return json.dumps(result.rows, sort_keys=True, default=str).encode()


class TestRunSpec:
    def test_defaults_and_hash_stability(self):
        a, b = RunSpec(), RunSpec()
        assert a == b
        assert a.spec_hash() == b.spec_hash()
        assert a.array_bytes == EXPERIMENT_ARRAY_BYTES
        # Cache keys and provenance hashes derive from these: pinned
        # literally so a dropped or added field cannot move them unseen.
        assert a.spec_hash() == (
            "0d8662d274e4e8e50faf0bfe7fc162cd8c4f9139171c9aed9b6c38b1cd1b7bee"
        )
        assert RunSpec(backend="trace").spec_hash() == (
            "089d36a3647a32aea1ddda848c4ffbd3ba3b970dd8d378be8c529ce24e4cdeb0"
        )

    def test_hash_changes_with_any_field(self):
        base = RunSpec().spec_hash()
        assert RunSpec(seed=1).spec_hash() != base
        assert RunSpec(dataset="cora").spec_hash() != base
        assert RunSpec(scale=0.5).spec_hash() != base
        assert RunSpec(hardware=(("weight_bits", 8),)).spec_hash() != base

    def test_hardware_overrides_normalised(self):
        a = RunSpec(hardware={"weight_bits": 8, "crossbar_rows": 128})
        b = RunSpec(hardware=(("crossbar_rows", 128), ("weight_bits", 8)))
        assert a == b
        config = a.resolve_config()
        assert config.weight_bits == 8
        assert config.crossbar_rows == 128
        assert config.array_capacity_bytes == EXPERIMENT_ARRAY_BYTES

    def test_unknown_hardware_field_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(hardware={"not_a_field": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(seed=-1)
        with pytest.raises(ConfigError):
            RunSpec(micro_batch=0)
        with pytest.raises(ConfigError):
            RunSpec(scale=0.0)

    def test_dict_round_trip(self):
        spec = RunSpec(
            dataset="ddi", seed=3, scale=0.5,
            hardware={"weight_bits": 8}, accelerator="gopim",
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        # to_dict is JSON-serialisable as-is (worker task payloads).
        json.dumps(spec.to_dict())
        # A payload from the retired fast tier must fail loudly rather
        # than run silently as the one numerics contract.
        with pytest.raises(ConfigError):
            RunSpec.from_dict({**spec.to_dict(), "numerics": "fast"})

    def test_with_derives_variants(self):
        spec = RunSpec(dataset="ddi")
        assert spec.with_(seed=7).seed == 7
        assert spec.with_(seed=7).dataset == "ddi"
        assert spec.with_() == spec


class TestStreams:
    def test_stream_seed_stable_and_distinct(self):
        assert stream_seed(0, "noise") == stream_seed(0, "noise")
        assert stream_seed(0, "noise") != stream_seed(0, "init")
        assert stream_seed(0, "noise") != stream_seed(1, "noise")
        assert 0 <= stream_seed(0, "noise") < 2 ** 32

    def test_session_streams_independent(self):
        session = Session()
        a = session.rng("noise").standard_normal(4)
        b = session.rng("noise").standard_normal(4)
        assert a.tolist() == b.tolist()  # fresh generator per call
        c = session.rng("init").standard_normal(4)
        assert a.tolist() != c.tolist()


class TestSessionArtifacts:
    def test_workload_requires_dataset(self):
        with pytest.raises(ExperimentError):
            Session().workload()

    def test_spec_dataset_is_the_default(self):
        session = Session(RunSpec(dataset="cora"))
        assert session.workload().name == session.workload("cora").name

    def test_provenance_block_shape(self):
        session = Session(RunSpec(dataset="cora", seed=2))
        prov = session.provenance()
        assert prov["spec_hash"] == session.spec.spec_hash()
        assert prov["run_spec"]["dataset"] == "cora"
        assert prov["config_fingerprint"] == session.config_fingerprint()


class TestDeterminism:
    """Same spec => byte-identical rows, however the caches are primed."""

    SPEC = RunSpec(seed=0)
    KWARGS = {"datasets": ("ddi",)}

    def _run(self, session):
        from repro.experiments.registry import run_experiment

        return run_experiment("fig06", session=session, **self.KWARGS)

    def test_cold_vs_warm_cache(self):
        session = Session(self.SPEC, cache=ArtifactCache())
        cold = self._run(session)     # empty cache: everything computed
        warm = self._run(session)     # same session: everything cached
        assert _rows_bytes(cold) == _rows_bytes(warm)

    def test_two_fresh_sessions_agree(self):
        a = self._run(Session(self.SPEC, cache=ArtifactCache()))
        b = self._run(Session(self.SPEC, cache=ArtifactCache()))
        assert _rows_bytes(a) == _rows_bytes(b)

    def test_provenance_stamp_matches_session(self):
        session = Session(self.SPEC, cache=ArtifactCache())
        result = session.stamp(self._run(session), "fig06")
        prov = result.metadata["provenance"]
        assert prov["spec_hash"] == self.SPEC.spec_hash()
        assert prov["experiment_id"] == "fig06"


def test_array_budget_alone_refits_no_predictor():
    first = Session().predictor()
    misses = get_cache().stats.misses
    second = Session(RunSpec(array_bytes=4 * 1024 ** 2)).predictor()
    assert second is first
    assert get_cache().stats.misses == misses


class TestIsolatedCache:
    """A session built with its own cache keeps every artifact there."""

    def test_process_cache_sees_no_traffic(self):
        from repro.experiments.registry import run_experiment
        from repro.serving import ServingSpec, run_serving

        process = get_cache()
        before = (dataclasses.replace(process.stats), len(process))
        session = Session(RunSpec(seed=0), cache=ArtifactCache())
        session.workload("ddi")  # outside any ``use()`` block
        run_experiment("tab06", session=session)
        run_serving(session, ServingSpec(num_requests=20_000))
        # The trace backend's compiled programs, in the same cache.
        traced = Session(RunSpec(seed=0, backend="trace"), cache=session.cache)
        run_experiment("tab06", session=traced)
        assert (process.stats, len(process)) == before
        assert len(session.cache) == session.cache.stats.misses > 0


def _start_threads(target, args):
    threads = [threading.Thread(target=target, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    return threads


class TestRunContext:
    """The active session is scoped per thread and per ``with`` block."""

    def test_default_is_built_once(self):
        assert current_session() is current_session()
        assert current_session().spec == RunSpec()

    def test_threads_see_their_own_session_at_once(self):
        names = ("analytic", "trace")
        barrier = threading.Barrier(len(names) + 1, timeout=30)
        seen = {}

        def worker(name):
            with Session(RunSpec(backend=name)).use():
                barrier.wait()  # every scope is open
                seen[name] = resolve_backend(None).name
                barrier.wait()  # every thread has read

        threads = _start_threads(worker, names)
        barrier.wait()
        seen["main"] = resolve_backend(None).name
        barrier.wait()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {
            "analytic": "analytic", "trace": "trace", "main": "analytic",
        }

    def test_nested_scopes_restore_the_outer_session(self):
        default = current_session()
        outer = Session(RunSpec(seed=1))
        inner = Session(RunSpec(seed=2, backend="trace"))
        with outer.use():
            with inner.use():
                assert current_session() is inner
                assert resolve_backend(None).name == "trace"
            assert current_session() is outer
            with pytest.raises(RuntimeError):
                with inner.use():
                    raise RuntimeError("boom")
            assert current_session() is outer
            assert resolve_backend(None).name == "analytic"
        assert current_session() is default

    def test_one_session_entered_from_many_threads(self):
        shared = Session(RunSpec(backend="trace"))
        workers = 8  # more threads than cores
        barrier = threading.Barrier(workers, timeout=30)
        seen = []

        def worker(index):
            own = Session(RunSpec(seed=index))
            views = []
            with shared.use():
                barrier.wait()  # every thread is inside at once
                for _ in range(200):
                    with own.use():
                        views.append(current_session() is own)
                    views.append(current_session() is shared)
            views.append(current_session() is not shared)
            seen.append(all(views))  # skipped if an exit raised

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = _start_threads(worker, range(workers))
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [True] * workers

    def test_parallel_sweep_under_a_trace_session(self):
        from repro.experiments.registry import run_all

        ids = ["abl-crossbar-size", "fig14"]
        with Session(RunSpec(backend="trace")).use():
            serial = run_all(only=ids, quick=True, jobs=1)
            parallel = run_all(only=ids, quick=True, jobs=2)
        for results in (serial, parallel):
            assert [r.experiment_id for r in results] == ids
            assert all(
                r.metadata["provenance"]["backend"] == "trace"
                for r in results
            )
        assert [_rows_bytes(r) for r in parallel] == [
            _rows_bytes(r) for r in serial
        ]


class TestRunSettings:
    """An experiment's workload scale, micro-batch and crossbar geometry
    come from the session's spec: changing one moves the rows it
    prices."""

    @staticmethod
    def _rows(spec, experiment_id, **kwargs):
        from repro.experiments.registry import run_experiment

        return _rows_bytes(
            run_experiment(experiment_id, session=Session(spec), **kwargs),
        )

    @pytest.mark.parametrize("experiment_id", ["fig04", "tab06"])
    def test_spec_scale_reaches_the_rows(self, experiment_id):
        assert self._rows(RunSpec(scale=0.5), experiment_id) != self._rows(
            RunSpec(), experiment_id,
        )

    @pytest.mark.parametrize("experiment_id, kwargs", [
        ("fig13", {"datasets": ("ddi",)}),
        ("abl-tta", {"epochs": 2}),
    ])
    def test_spec_micro_batch_reaches_the_rows(self, experiment_id, kwargs):
        spec = RunSpec(micro_batch=32)
        assert self._rows(spec, experiment_id, **kwargs) != self._rows(
            RunSpec(), experiment_id, **kwargs,
        )

    @pytest.mark.parametrize(
        "experiment_id", ["fig06", "fig07", "abl-endurance"],
    )
    def test_spec_crossbar_rows_reach_the_rows(self, experiment_id):
        # Per-crossbar degrees, write cycles and wordline wear all depend
        # on how many vertices share a crossbar.
        from repro.experiments.registry import run_all

        def quick_rows(spec):
            result = run_all(
                only=[experiment_id], quick=True, session=Session(spec),
            )[0]
            return _rows_bytes(result)

        spec = RunSpec(hardware={"crossbar_rows": 128})
        assert quick_rows(spec) != quick_rows(RunSpec())
