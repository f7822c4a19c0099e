"""repro.perf: content keys, the two-tier cache, and the memo decorator."""

from __future__ import annotations

import dataclasses
import enum
import gc
import os
import pickle
import subprocess
import sys
import types

import numpy as np
import pytest

from repro.graphs.generators import dc_sbm_graph
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.mapping.selective import build_update_plan
from repro.perf import (
    ENV_DISK_CACHE,
    ENV_DISK_CACHE_MAX_MB,
    ArtifactCache,
    CacheKeyError,
    cache_key,
    clear_cache,
    get_cache,
)
from repro.perf import cache as cache_module
from repro.runtime import RunSpec, Session
from repro.stages.latency import TimingParams
from repro.stages.workload import Workload
from tests.oracles.cache_key import cache_key_reference


class Mode(enum.Enum):
    A = "a"
    B = "b"


@dataclasses.dataclass(frozen=True)
class Params:
    x: int
    y: float


class TestCacheKey:
    def test_deterministic_and_content_sensitive(self):
        assert cache_key(1, "a", 2.5) == cache_key(1, "a", 2.5)
        assert cache_key(1, "a") != cache_key(1, "b")
        assert cache_key(1) != cache_key(1.0)  # int vs float is content
        assert cache_key(True) != cache_key(1)

    def test_ndarray_keys_on_dtype_shape_and_bytes(self):
        a = np.arange(6, dtype=np.float32)
        assert cache_key(a) == cache_key(a.copy())
        assert cache_key(a) != cache_key(a.astype(np.float64))
        assert cache_key(a) != cache_key(a.reshape(2, 3))
        assert cache_key(a) != cache_key(a[::-1])

    def test_dict_order_does_not_matter(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})

    def test_enum_dataclass_and_fingerprint_objects(self):
        assert cache_key(Mode.A) == cache_key(Mode.A)
        assert cache_key(Mode.A) != cache_key(Mode.B)
        assert cache_key(Params(1, 2.0)) == cache_key(Params(1, 2.0))
        assert cache_key(Params(1, 2.0)) != cache_key(Params(1, 3.0))
        g1 = dc_sbm_graph(num_vertices=24, num_communities=2,
                          avg_degree=3.0, random_state=0)
        g2 = dc_sbm_graph(num_vertices=24, num_communities=2,
                          avg_degree=3.0, random_state=1)
        assert cache_key(g1) == cache_key(g1)
        assert cache_key(g1) != cache_key(g2)

    def test_unhashable_raises_instead_of_colliding(self):
        # An object array's bytes are element pointers: equal arrays
        # would key apart, and mutating an element would keep the key.
        lists = np.empty(2, dtype=object)
        lists[0], lists[1] = [1], [2]
        for value in (object(), lists):
            with pytest.raises(CacheKeyError):
                cache_key(value)


class TestKeyStability:
    """Digests recorded before the encoder memoised anything.

    ``config_fingerprint`` is stamped into every result's provenance and
    the timing-table parts key the accelerator artifacts: a change to
    either digest orphans every recorded key.
    """

    def test_config_fingerprints(self):
        assert Session(RunSpec()).config_fingerprint() == (
            "01e01ad69147bc1bbc37c0edaeddbcca40be57a61d98c67815042a23dc68a8f2"
        )
        assert cache_key(DEFAULT_CONFIG) == (
            "3a5a1f394c1d714e2e60be6cef4206981fc01b27ec5da492fcc8adbc784cb253"
        )

    def test_timing_params(self):
        assert cache_key(TimingParams()) == (
            "a907314fec8ff5c4ac781a0776023413299d7ae651b0a1e1f7f4466d55e131d5"
        )

    def test_timing_table_parts(self):
        graph = dc_sbm_graph(
            num_vertices=200, num_communities=4, avg_degree=10.0,
            random_state=7, feature_dim=16, name="small",
        )
        workload = Workload(
            graph=graph, layer_dims=[(16, 32), (32, 8)], micro_batch=32,
            name="small",
        )
        plan = build_update_plan(
            graph, strategy="isu",
            rows_per_crossbar=DEFAULT_CONFIG.crossbar_rows,
        )
        parts = (
            graph, tuple(workload.layer_dims), workload.micro_batch,
            DEFAULT_CONFIG, TimingParams(reload_penalty=1.0),
            plan.mapping.crossbar_of, plan.important, float(plan.theta),
            plan.minor_period,
        )
        for _ in range(2):  # the first call fills the memo, the second reads it
            assert cache_key(*parts) == (
                "18dcc4a42cb83ac514805f80fa6b2f7a"
                "6394621b257794a06b0dd41c20eced11"
            )

    def test_hashing_leaves_pickles_unchanged(self):
        before = pickle.dumps(DEFAULT_CONFIG)
        cache_key(DEFAULT_CONFIG)
        assert pickle.dumps(DEFAULT_CONFIG) == before


class TestEncodingMemo:
    def test_memoised_digest_equals_a_fresh_walk(self):
        config = HardwareConfig(crossbar_rows=128)
        first = cache_key(config)
        assert cache_key(config) == first == cache_key_reference(config)
        assert cache_key(HardwareConfig(crossbar_rows=128)) == first

    def test_values_without_a_weakref_slot_are_encoded_afresh(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Slotted:
            x: int

        value = Slotted(1)
        assert cache_key(value) == cache_key(value) == cache_key_reference(value)

    def test_keyed_by_identity_not_equality(self):
        # Equal values may encode differently (2 == 2.0), so one value's
        # memo must never answer for another.
        exact, loose = Params(1, 2.0), Params(1, 2)
        assert exact == loose
        assert cache_key(exact) != cache_key(loose)
        assert cache_key(loose) == cache_key_reference(loose)

    def test_mutable_content_is_encoded_afresh(self):
        @dataclasses.dataclass
        class Counter:
            n: int

        @dataclasses.dataclass(frozen=True)
        class Holder:
            values: np.ndarray

        counter = Counter(1)
        holder = Holder(np.zeros(3))
        before = cache_key(counter), cache_key(holder)
        counter.n = 2
        holder.values[0] = 1.0
        assert cache_key(counter) != before[0]
        assert cache_key(holder) != before[1]

    def test_memo_dropped_with_its_value(self):
        config = HardwareConfig(crossbar_rows=256)
        cache_key(config)
        ident = id(config)
        assert ident in cache_module._ENCODINGS
        del config
        gc.collect()
        assert ident not in cache_module._ENCODINGS


class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache(disk_dir="")
        calls = []

        def compute():
            calls.append(1)
            return "artifact"

        assert cache.get_or_compute("ns", "k", compute) == "artifact"
        assert cache.get_or_compute("ns", "k", compute) == "artifact"
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.contains("ns", "k")
        assert not cache.contains("ns", "other")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0

    def test_namespaces_do_not_collide(self):
        cache = ArtifactCache(disk_dir="")
        cache.get_or_compute("ns1", "k", lambda: 1)
        assert cache.get_or_compute("ns2", "k", lambda: 2) == 2

    def test_disk_tier_round_trip(self, tmp_path):
        payload = {"arr": np.arange(5), "x": 3}
        writer = ArtifactCache(disk_dir=str(tmp_path))
        writer.get_or_compute("ns", "k", lambda: payload)
        # A fresh cache (fresh process stand-in) hits the disk tier.
        reader = ArtifactCache(disk_dir=str(tmp_path))
        got = reader.get_or_compute(
            "ns", "k", lambda: pytest.fail("should hit disk"),
        )
        assert reader.stats.disk_hits == 1
        np.testing.assert_array_equal(got["arr"], payload["arr"])

    def test_corrupt_disk_entry_recomputed(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: 1)
        (tmp_path / "ns" / "k.pkl").write_bytes(b"not a pickle")
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        assert fresh.get_or_compute("ns", "k", lambda: 2) == 2

    def test_get_reads_the_disk_tier_like_get_or_compute(self, tmp_path):
        ArtifactCache(disk_dir=str(tmp_path)).put("ns", "k", [1])
        (tmp_path / "ns" / "bad.pkl").write_bytes(b"not a pickle")
        reader = ArtifactCache(disk_dir=str(tmp_path))
        assert reader.get("ns", "k") == [1]
        assert reader.contains("ns", "k")  # promoted to memory
        assert reader.get("ns", "bad", "absent") == "absent"
        assert (reader.stats.disk_hits, reader.stats.misses) == (1, 1)

    def test_env_var_checked_at_call_time(self, tmp_path, monkeypatch):
        cache = ArtifactCache()
        monkeypatch.setenv(ENV_DISK_CACHE, str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: "v")
        assert (tmp_path / "ns" / "k.pkl").exists()
        monkeypatch.delenv(ENV_DISK_CACHE)
        cache.get_or_compute("ns", "k2", lambda: "v2")
        assert not (tmp_path / "ns" / "k2.pkl").exists()

    def test_clear_disk(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: 1)
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.pkl"))


STALE_MODULE = "repro_test_stale_artifacts"


def _stale(kind, monkeypatch):
    """Pickled bytes that no longer load in the way ``kind`` names."""
    module = types.ModuleType(STALE_MODULE)

    class Artifact:
        pass

    Artifact.__module__ = STALE_MODULE
    Artifact.__qualname__ = Artifact.__name__ = "Artifact"
    module.Artifact = Artifact
    monkeypatch.setitem(sys.modules, STALE_MODULE, module)
    blob = pickle.dumps(Artifact(), protocol=pickle.HIGHEST_PROTOCOL)
    if kind == "renamed-class":
        del module.Artifact
    elif kind == "missing-module":
        monkeypatch.delitem(sys.modules, STALE_MODULE)
    else:  # truncated
        blob = blob[: len(blob) // 2]
    return blob


class TestStaleDiskEntries:
    """An entry that fails to unpickle is a counted miss, recomputed and
    overwritten, whatever the failure."""

    KINDS = ("renamed-class", "missing-module", "truncated")

    @pytest.mark.parametrize("kind", KINDS)
    def test_get_or_compute_recomputes_and_overwrites(
        self, kind, tmp_path, monkeypatch,
    ):
        (tmp_path / "ns").mkdir()
        (tmp_path / "ns" / "k.pkl").write_bytes(_stale(kind, monkeypatch))
        cache = ArtifactCache(disk_dir=str(tmp_path))
        assert cache.get_or_compute("ns", "k", lambda: [2]) == [2]
        assert cache.stats.misses == 1
        assert cache.stats.disk_hits == 0
        assert cache.stats.corrupt == {"ns": 1}
        # The recomputed value replaced the stale file.
        reader = ArtifactCache(disk_dir=str(tmp_path))
        assert reader.get_or_compute(
            "ns", "k", lambda: pytest.fail("should hit disk"),
        ) == [2]
        assert reader.stats.disk_hits == 1
        assert reader.stats.corrupt == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_get_reads_a_miss_and_put_overwrites(
        self, kind, tmp_path, monkeypatch,
    ):
        (tmp_path / "ns").mkdir()
        (tmp_path / "ns" / "k.pkl").write_bytes(_stale(kind, monkeypatch))
        cache = ArtifactCache(disk_dir=str(tmp_path))
        assert cache.get("ns", "k", "absent") == "absent"
        assert (cache.stats.misses, cache.stats.corrupt) == (1, {"ns": 1})
        cache.put("ns", "k", [3])
        assert ArtifactCache(disk_dir=str(tmp_path)).get("ns", "k") == [3]

    def test_counted_per_namespace_and_reset_by_clear(
        self, tmp_path, monkeypatch,
    ):
        for namespace in ("a", "a2", "b"):
            (tmp_path / namespace).mkdir()
        (tmp_path / "a" / "k1.pkl").write_bytes(b"not a pickle")
        (tmp_path / "a" / "k2.pkl").write_bytes(
            _stale("truncated", monkeypatch),
        )
        (tmp_path / "b" / "k1.pkl").write_bytes(
            _stale("missing-module", monkeypatch),
        )
        cache = ArtifactCache(disk_dir=str(tmp_path))
        for namespace, key in (("a", "k1"), ("a", "k2"), ("b", "k1")):
            cache.get_or_compute(namespace, key, lambda: 0)
        cache.get_or_compute("a2", "absent", lambda: 0)  # a plain miss
        assert cache.stats.corrupt == {"a": 2, "b": 1}
        assert cache.stats.misses == 4
        cache.clear()
        assert cache.stats.corrupt == {}


class TestDefaultCacheAndDecorator:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_clear_cache_resets_default(self):
        get_cache().get_or_compute("ns", "k", lambda: 1)
        assert get_cache().contains("ns", "k")
        clear_cache()
        assert not get_cache().contains("ns", "k")


def test_cross_process_determinism(tmp_path):
    """Keyed artifacts built in separate processes are identical.

    Two fresh interpreters generate the same dataset with a shared disk
    cache dir; the second must hit the first's entry, and the pickled
    artifact must equal a from-scratch build.
    """
    script = (
        "import sys, numpy as np\n"
        "from repro.graphs.datasets import load_dataset\n"
        "from repro.perf import get_cache\n"
        "g = load_dataset('cora', random_state=0)\n"
        "np.save(sys.argv[1], g.features)\n"
        "print(get_cache().stats.disk_hits)\n"
    )
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = {
        **os.environ,
        ENV_DISK_CACHE: str(tmp_path / "cache"),
        "PYTHONPATH": os.path.join(repo_root, "src"),
    }
    outs = []
    hits = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            capture_output=True, text=True, check=True, env=env,
        )
        outs.append(np.load(out))
        hits.append(int(proc.stdout.strip().splitlines()[-1]))
    np.testing.assert_array_equal(outs[0], outs[1])
    assert hits[0] == 0     # first process built it
    assert hits[1] >= 1     # second process loaded it from disk


class TestDiskCap:
    def _fill(self, cache, count, payload_kb=64):
        blob = np.zeros(payload_kb * 1024 // 8)
        for i in range(count):
            cache.get_or_compute("ns", f"k{i}", lambda b=blob, i=i: (i, b))

    def test_lru_eviction_over_cap(self, tmp_path, monkeypatch):
        # ~64 KB per artifact, cap at ~0.2 MB: the oldest entries go.
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "0.2")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 6)
        remaining = sorted(p.name for p in tmp_path.rglob("*.pkl"))
        assert 0 < len(remaining) < 6
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert total <= 0.2e6
        # The newest key always survives.
        assert "k5.pkl" in remaining

    def test_disk_hit_refreshes_recency(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "0.2")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 3)
        # Backdate everything (k0 oldest), then re-read k0 from disk
        # through a fresh cache: the hit must bump its recency so the
        # next overflow evicts k1 — the stalest entry — instead.
        for age, name in enumerate(("k0", "k1", "k2")):
            os.utime(tmp_path / "ns" / f"{name}.pkl", (age, age))
        fresh = ArtifactCache(disk_dir=str(tmp_path))
        fresh.get_or_compute("ns", "k0", lambda: None)
        assert fresh.stats.disk_hits == 1
        fresh.get_or_compute(
            "ns", "k3", lambda: np.zeros(64 * 1024 // 8),
        )
        names = {p.name for p in tmp_path.rglob("*.pkl")}
        assert "k0.pkl" in names
        assert "k1.pkl" not in names

    def test_generous_default_keeps_everything(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DISK_CACHE_MAX_MB, raising=False)
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 6)
        assert len(list(tmp_path.rglob("*.pkl"))) == 6

    def test_bad_cap_value_falls_back_to_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DISK_CACHE_MAX_MB, "not-a-number")
        cache = ArtifactCache(disk_dir=str(tmp_path))
        self._fill(cache, 4)
        assert len(list(tmp_path.rglob("*.pkl"))) == 4


class TestSpillToDisk:
    def test_spills_memory_entries_to_new_tier(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DISK_CACHE, raising=False)
        cache = ArtifactCache()
        cache.get_or_compute("ns", "k", lambda: 41)
        monkeypatch.setenv(ENV_DISK_CACHE, str(tmp_path))
        assert cache.spill_to_disk() == 1
        reader = ArtifactCache(disk_dir=str(tmp_path))
        assert reader.get_or_compute("ns", "k", lambda: -1) == 41

    def test_existing_files_not_rewritten(self, tmp_path):
        cache = ArtifactCache(disk_dir=str(tmp_path))
        cache.get_or_compute("ns", "k", lambda: 1)
        assert cache.spill_to_disk() == 0

    def test_noop_without_disk_tier(self, monkeypatch):
        monkeypatch.delenv(ENV_DISK_CACHE, raising=False)
        cache = ArtifactCache()
        cache.get_or_compute("ns", "k", lambda: 1)
        assert cache.spill_to_disk() == 0

    def test_unpicklable_entries_skipped(self, tmp_path):
        cache = ArtifactCache()
        cache.get_or_compute("ns", "bad", lambda: (lambda: None))
        cache._disk_dir = str(tmp_path)
        assert cache.spill_to_disk() == 0
