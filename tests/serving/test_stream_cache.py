"""Request streams are drawn once per key and kept in the session's cache.

The unit arrival pattern and the per-request seed degrees go through
``session.cache`` under ``"serving-streams"``.  These tests pin that a
cached array is byte-identical to a fresh draw from the same named
stream, that scenarios differing only in load, balancer or policy reuse
it, that every input the draw reads is part of the key, and that the
shared arrays cannot be written.
"""

import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.perf.cache import ArtifactCache
from repro.runtime import RunSpec, Session
from repro.serving import ServingSpec, run_serving
from repro.serving.arrivals import unit_mmpp, unit_poisson, unit_trace
from repro.serving.service import (
    STREAMS_NAMESPACE,
    _unit_pattern,
    request_degrees,
)

SEEDS = range(5)
SIZES = (1, 1000, 60_000)


class CountingCache(ArtifactCache):
    """An isolated cache that counts the artifacts it computes per namespace."""

    def __init__(self):
        super().__init__()
        self.computed = Counter()

    def get_or_compute(self, namespace, key, compute):
        def counted():
            self.computed[namespace] += 1
            return compute()

        return super().get_or_compute(namespace, key, counted)


def fresh_pattern(session, spec):
    """The unit pattern drawn without any cache."""
    if spec.process == "trace":
        return unit_trace(spec.num_requests)
    master = session.spec.seed if spec.seed is None else spec.seed
    rng = session.rng(
        f"serving:{spec.dataset}:{spec.process}:arrivals", seed=master,
    )
    if spec.process == "mmpp":
        return unit_mmpp(spec.num_requests, rng, burstiness=spec.burstiness)
    return unit_poisson(spec.num_requests, rng)


def fresh_degrees(session, spec):
    """The seed degrees drawn without any cache."""
    master = session.spec.seed if spec.seed is None else spec.seed
    graph = session.workload(spec.dataset).graph
    rng = session.rng(f"serving:{spec.dataset}:requests", seed=master)
    seeds = rng.integers(0, graph.num_vertices, spec.num_requests)
    return np.asarray(graph.degrees, dtype=np.int64)[seeds]


def assert_same_bytes(cached, fresh):
    assert cached.dtype == fresh.dtype
    assert cached.shape == fresh.shape
    assert cached.tobytes() == fresh.tobytes()


@pytest.fixture(scope="module")
def session():
    return Session(RunSpec(seed=0), cache=ArtifactCache())


class TestByteIdentity:
    @pytest.mark.parametrize("process", ["poisson", "mmpp", "trace"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pattern_equals_a_fresh_draw(self, session, process, seed):
        for count in SIZES:
            spec = ServingSpec(num_requests=count, process=process, seed=seed)
            first = _unit_pattern(session, spec)
            assert _unit_pattern(session, spec) is first
            assert_same_bytes(first, fresh_pattern(session, spec))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_degrees_equal_a_fresh_draw(self, session, seed):
        for count in SIZES:
            spec = ServingSpec(num_requests=count, seed=seed)
            first = request_degrees(session, spec)
            assert request_degrees(session, spec) is first
            assert_same_bytes(first, fresh_degrees(session, spec))


class TestReuse:
    """A scenario that differs only in what the draw does not read
    draws nothing new."""

    @pytest.mark.parametrize("process", ["poisson", "mmpp", "trace"])
    def test_load_balancer_and_policy_reuse_the_streams(self, process):
        cache = CountingCache()
        session = Session(RunSpec(seed=0), cache=cache)
        base = ServingSpec(num_requests=20_000, process=process)
        run_serving(session, base)
        assert cache.computed[STREAMS_NAMESPACE] == 2
        for change in (
            {"load": 0.5}, {"rate_rps": 2e6}, {"balancer": "rr"},
            {"policy": "timeout"}, {"max_batch": 16, "timeout_us": 5.0},
        ):
            run_serving(session, replace(base, **change))
        assert cache.computed[STREAMS_NAMESPACE] == 2

    def test_a_trace_backend_session_reuses_the_streams(self):
        cache = CountingCache()
        spec = ServingSpec(num_requests=20_000)
        run_serving(Session(RunSpec(seed=0), cache=cache), spec)
        traced = Session(RunSpec(seed=0, backend="trace"), cache=cache)
        run_serving(traced, spec)
        assert cache.computed[STREAMS_NAMESPACE] == 2


class TestKeyCompleteness:
    """Every input the draw reads gives a new draw, equal to a fresh one."""

    BASE = ServingSpec(num_requests=5_000, process="mmpp", seed=3)

    @pytest.mark.parametrize("change", [
        {"dataset": "cora"},
        {"process": "poisson"},
        {"num_requests": 5_001},
        {"burstiness": 4.0},
        {"seed": 4},
    ])
    def test_spec_change_draws_anew(self, change):
        cache = CountingCache()
        session = Session(RunSpec(seed=0), cache=cache)
        _unit_pattern(session, self.BASE)
        request_degrees(session, self.BASE)
        spec = replace(self.BASE, **change)
        pattern = _unit_pattern(session, spec)
        degrees = request_degrees(session, spec)
        # The degrees read no arrival parameter; everything else redraws.
        redrawn = 2 if set(change) & {"dataset", "num_requests", "seed"} else 1
        assert cache.computed[STREAMS_NAMESPACE] == 2 + redrawn
        assert_same_bytes(pattern, fresh_pattern(session, spec))
        assert_same_bytes(degrees, fresh_degrees(session, spec))

    def test_session_seed_is_part_of_the_key(self):
        # With ``spec.seed=None`` the draw reads the session's master
        # seed, so two sessions sharing one cache must not share streams.
        cache = CountingCache()
        spec = ServingSpec(num_requests=5_000, process="mmpp")
        first = Session(RunSpec(seed=0), cache=cache)
        second = Session(RunSpec(seed=1), cache=cache)
        a = _unit_pattern(first, spec)
        b = _unit_pattern(second, spec)
        assert cache.computed[STREAMS_NAMESPACE] == 2
        assert not np.array_equal(a, b)
        assert_same_bytes(a, fresh_pattern(first, spec))
        assert_same_bytes(b, fresh_pattern(second, spec))
        assert_same_bytes(
            request_degrees(second, spec), fresh_degrees(second, spec),
        )
        assert cache.computed[STREAMS_NAMESPACE] == 3

    def test_graph_is_part_of_the_degree_key(self):
        cache = CountingCache()
        spec = ServingSpec(num_requests=5_000, seed=3)
        full = Session(RunSpec(seed=0), cache=cache)
        half = Session(RunSpec(seed=0, scale=0.5), cache=cache)
        assert full.workload("ddi").graph.num_vertices != (
            half.workload("ddi").graph.num_vertices
        )
        request_degrees(full, spec)
        degrees = request_degrees(half, spec)
        assert cache.computed[STREAMS_NAMESPACE] == 2
        assert_same_bytes(degrees, fresh_degrees(half, spec))
        # The arrival pattern reads no graph: one draw serves both.
        assert _unit_pattern(full, spec) is _unit_pattern(half, spec)


class TestReadOnly:
    def test_cached_streams_cannot_be_written(self, session):
        spec = ServingSpec(num_requests=1000, process="mmpp")
        for array in (_unit_pattern(session, spec),
                      request_degrees(session, spec)):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_read_only_after_a_disk_hit(self, tmp_path):
        spec = ServingSpec(num_requests=1000, process="mmpp")
        writer = Session(RunSpec(seed=0), cache=ArtifactCache(str(tmp_path)))
        pattern = _unit_pattern(writer, spec)
        degrees = request_degrees(writer, spec)
        # Whatever wrote an entry, a hit must come back read-only: store
        # writable copies (pickle protocol 4 drops the flag in any case).
        entries = sorted((tmp_path / STREAMS_NAMESPACE).glob("*.pkl"))
        assert len(entries) == 2
        for path in entries:
            array = np.array(pickle.loads(path.read_bytes()))
            path.write_bytes(pickle.dumps(array, protocol=4))

        cache = ArtifactCache(str(tmp_path))
        reader = Session(RunSpec(seed=0), cache=cache)
        for cached, drawn in (
            (_unit_pattern(reader, spec), pattern),
            (request_degrees(reader, spec), degrees),
        ):
            assert_same_bytes(cached, drawn)
            with pytest.raises(ValueError):
                cached[0] = 0
        assert cache.stats.misses == 0
        assert cache.stats.disk_hits >= 2
