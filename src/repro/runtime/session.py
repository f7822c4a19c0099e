"""`Session`: the resolved runtime a :class:`RunSpec` deterministically implies.

Everything the old ``repro.experiments.context`` module held as
process-wide globals lives here instead, owned by one object that can be
constructed, passed around, pickled across worker processes (via its
spec), and torn down without leaking state:

* the resolved :class:`~repro.hardware.config.HardwareConfig`;
* the simulation backend its spec names (``spec.backend``);
* named, seeded RNG streams (:meth:`Session.rng`) derived from the
  spec's master seed, so independent subsystems never share a stream;
* the content-keyed :class:`~repro.perf.cache.ArtifactCache` backing
  workloads, fitted predictors, and stage tables;
* result provenance — :meth:`Session.stamp` records the spec hash and
  config fingerprint into each
  :class:`~repro.experiments.harness.ExperimentResult`'s metadata.

The session is also the run context.  ``with session.use():`` makes it
the :func:`current_session` until the block exits, in this thread or
asyncio task only (a :class:`~contextvars.ContextVar` holds it), and
nested blocks restore the outer session on exit.  Code deep in the call
tree — experiments, the backend consumers — reads
:func:`current_session` instead of taking a ``session`` argument.
Outside every block it returns one default ``Session()``, built once
per process.

Two Sessions built from equal specs are interchangeable: every artifact
they resolve is content-keyed, every stream they hand out is seeded from
the spec, so results are byte-identical regardless of cache temperature
or process boundaries (tests/runtime/test_session.py asserts this).
"""

from __future__ import annotations

import functools
import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, Optional

import numpy as np

from repro.perf.cache import ArtifactCache, cache_key, get_cache
from repro.runtime.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.harness import ExperimentResult
    from repro.predictor.predictor import TimePredictor
    from repro.stages.workload import Workload


def stream_seed(master_seed: int, stream: str) -> int:
    """Deterministic 32-bit seed for one named RNG stream.

    Stable across processes and Python versions (sha256, not ``hash``),
    and distinct per stream name, so subsystems drawing from different
    streams never interleave.
    """
    digest = hashlib.sha256(f"{master_seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Session:
    """One resolved run: config + backend + RNG streams + cache.

    Parameters
    ----------
    spec:
        The :class:`RunSpec` to resolve; defaults to ``RunSpec()`` (the
        experiment-scale defaults every reproduced table runs under).
    cache:
        Artifact cache to use; defaults to the process-wide cache so
        sessions share deterministic artifacts (pass a fresh
        :class:`ArtifactCache` for an isolated cold-cache session).
        Every cached layer reads ``current_session().cache``, so work
        run inside this session (``with session.use():``) keeps its
        artifacts here.
    """

    def __init__(
        self,
        spec: Optional[RunSpec] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.spec = spec if spec is not None else RunSpec()
        self.config = self.spec.resolve_config()
        self._cache = cache
        # (samples, seed and their types) -> "predictors" key: the key
        # walks every config field, and the config is fixed.
        self._predictor_keys: Dict[tuple, str] = {}

    def __repr__(self) -> str:
        return f"Session(spec_hash={self.spec.spec_hash()[:12]})"

    @property
    def cache(self) -> ArtifactCache:
        """The session's own cache, else the process-wide one (looked up
        on each access, like :func:`~repro.perf.cache.get_cache`)."""
        return self._cache if self._cache is not None else get_cache()

    @contextmanager
    def use(self) -> Iterator["Session"]:
        """Make this the :func:`current_session` for the ``with`` block.

        Each call sets and resets its own context token, so one session
        may be entered from several threads at once.
        """
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)

    # ------------------------------------------------------------------
    # RNG streams
    # ------------------------------------------------------------------
    def rng(self, stream: str, seed: Optional[int] = None) -> np.random.Generator:
        """A fresh generator for the named stream (deterministic per call).

        Equal ``(spec.seed, stream)`` always yields an identically seeded
        generator; different stream names yield independent streams.
        Pass ``seed`` to derive from an explicit master seed instead of
        the spec's (experiment ``run()`` overrides do).
        """
        master = self.spec.seed if seed is None else seed
        return np.random.default_rng(stream_seed(master, stream))

    # ------------------------------------------------------------------
    # Cached artifacts (the old experiments.context surface)
    # ------------------------------------------------------------------
    def workload(
        self,
        dataset: Optional[str] = None,
        seed: Optional[int] = None,
        micro_batch: Optional[int] = None,
    ) -> "Workload":
        """Cached Table IV workload at the spec's scale (the other spec
        defaults take per-call overrides)."""
        from repro.stages.workload import workload_from_dataset

        name = dataset if dataset is not None else self.spec.dataset
        if name is None:
            from repro.errors import ExperimentError

            raise ExperimentError(
                "no dataset given and the session's RunSpec names none"
            )
        seed = self.spec.seed if seed is None else seed
        micro_batch = (
            self.spec.micro_batch if micro_batch is None else micro_batch
        )
        scale = self.spec.scale
        key = cache_key(name, seed, micro_batch, scale)

        def build() -> "Workload":
            with self.use():
                return workload_from_dataset(
                    name, random_state=seed, micro_batch=micro_batch,
                    scale=scale,
                )

        return self.cache.get_or_compute("workloads", key, build)

    def graph(self, dataset: Optional[str] = None, seed: Optional[int] = None):
        """The cached workload's graph (the per-dataset loop shorthand)."""
        return self.workload(dataset, seed=seed).graph

    def predictor(
        self,
        num_samples: int = 800,
        seed: Optional[int] = None,
    ) -> "TimePredictor":
        """Cached fitted TimePredictor, trained on samples priced on this
        session's hardware.  Deterministic per (samples, seed, the config
        fields a sample reads): sessions that differ only in their array
        budget share one predictor.  The key is built once per (samples,
        seed) and kept on the session."""
        from repro.predictor.dataset import (
            generate_dataset,
            samples_config_key,
        )
        from repro.predictor.predictor import TimePredictor

        seed = self.spec.seed if seed is None else seed
        # Equal numbers of other types (1 and 1.0, 1 and True) encode
        # differently, so the types are part of the memo's key.
        memo = (num_samples, seed, type(num_samples), type(seed))
        key = self._predictor_keys.get(memo)
        if key is None:
            key = self._predictor_keys[memo] = cache_key(
                num_samples, seed, samples_config_key(self.config),
            )

        def fit() -> "TimePredictor":
            with self.use():
                dataset = generate_dataset(
                    num_samples=num_samples, random_state=seed,
                )
                return TimePredictor().fit(dataset)

        return self.cache.get_or_compute("predictors", key, fit)

    def prefetch(self, datasets: Iterable[str]) -> int:
        """Warm the workload cache for the named datasets.

        Sweep drivers call this before forking workers so every worker
        inherits the (deterministic) workloads instead of regenerating
        them; returns how many datasets were touched.
        """
        count = 0
        for name in dict.fromkeys(datasets):  # de-dup, keep order
            self.workload(name)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def config_fingerprint(self) -> str:
        """Content hash of the resolved hardware configuration."""
        return cache_key(self.config)

    def provenance(self) -> Dict[str, Any]:
        """The provenance block stamped into results and JSON outputs."""
        return {
            "spec_hash": self.spec.spec_hash(),
            "run_spec": self.spec.to_dict(),
            "config_fingerprint": self.config_fingerprint(),
            "backend": self.spec.backend,
        }

    def stamp(
        self,
        result: "ExperimentResult",
        experiment_id: Optional[str] = None,
    ) -> "ExperimentResult":
        """Record this session's provenance into a result's metadata."""
        block = self.provenance()
        if experiment_id is not None:
            block["experiment_id"] = experiment_id
        result.metadata["provenance"] = block
        return result


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
_current: ContextVar[Optional[Session]] = ContextVar(
    "repro_session", default=None,
)


@functools.cache
def _process_session() -> Session:
    return Session()


def current_session() -> Session:
    """The innermost session entered with :meth:`Session.use` in this
    context, else the process default ``Session()``."""
    session = _current.get()
    return session if session is not None else _process_session()
