"""`RunSpec`: the one typed, frozen specification a run resolves from.

Config-driven PIM simulators (PIMSIM-NN's config-file front-end, PIMSYN's
declarative architecture spec) put every knob that can change a result in
one serialisable record.  ``RunSpec`` is that record for this
reproduction: dataset, seed, workload scale, micro-batch size, the
hardware budget plus any :class:`~repro.hardware.config.HardwareConfig`
field overrides, an optional accelerator id, and the simulation
backend.  Everything else — resolved config, RNG streams, caches — hangs
off the :class:`~repro.runtime.session.Session` built from it.

A ``RunSpec`` hashes to a *content key* (:meth:`RunSpec.spec_hash`): two
equal specs always produce the same hash, across processes and runs, so
the hash can key caches and stamp result provenance.  Specs round-trip
through plain dicts (:meth:`to_dict` / :meth:`from_dict`) for JSON
serialisation and process-pool shipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.hardware.config import DEFAULT_CONFIG, HardwareConfig
from repro.perf.cache import cache_key

# The scaled experiment hardware budget.  The paper evaluates under a
# 16 GB crossbar array; our datasets are scaled down ~64-600x (DESIGN.md
# section 1), so the default budget is scaled to 256 MB — enough that the
# allocation policy is the binding constraint, as at paper scale.
EXPERIMENT_ARRAY_BYTES = 256 * 1024 ** 2

HardwareOverrides = Union[
    Mapping[str, Any], Tuple[Tuple[str, Any], ...], None,
]


def _normalise_overrides(
    overrides: HardwareOverrides,
) -> Tuple[Tuple[str, Any], ...]:
    """Overrides as a sorted, hashable tuple of (field, value) pairs."""
    if not overrides:
        return ()
    items = (
        overrides.items() if isinstance(overrides, Mapping) else overrides
    )
    config_fields = {f.name for f in fields(HardwareConfig)}
    pairs = []
    for name, value in items:
        if name not in config_fields:
            raise ConfigError(
                f"unknown HardwareConfig field {name!r} in hardware "
                f"overrides; known fields: {', '.join(sorted(config_fields))}"
            )
        pairs.append((str(name), value))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class RunSpec:
    """Deterministic description of one run.

    Parameters
    ----------
    dataset:
        Default dataset for :meth:`Session.workload`; ``None`` means the
        caller must name one per call (multi-dataset experiments do).
    seed:
        Master seed.  Named RNG streams and default workloads derive
        from it.
    micro_batch:
        Default pipeline micro-batch size (Table IV uses 64).
    scale:
        Workload scale factor (1.0 = the reproduction's Table IV sizes).
    array_bytes:
        ReRAM array budget the experiments run under.
    hardware:
        Extra :class:`HardwareConfig` field overrides, as a mapping or a
        tuple of pairs (stored sorted, so equal contents hash equally).
    accelerator:
        Optional accelerator id (``"gopim"``, ``"serial"``, ...) for
        entry points that drive a single system.
    backend:
        Simulation backend — ``"analytic"`` (closed-form latency
        tables, the default) or ``"trace"`` (instruction-stream
        compile/replay; see :mod:`repro.backends`).  The one place a
        run chooses its engine: pricing code reads it from
        :func:`~repro.runtime.current_session`.
    """

    dataset: Optional[str] = None
    seed: int = 0
    micro_batch: int = 64
    scale: float = 1.0
    array_bytes: int = EXPERIMENT_ARRAY_BYTES
    hardware: Tuple[Tuple[str, Any], ...] = field(default=())
    accelerator: Optional[str] = None
    backend: str = "analytic"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.micro_batch < 1:
            raise ConfigError(
                f"micro_batch must be >= 1, got {self.micro_batch}"
            )
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.array_bytes < 1:
            raise ConfigError(
                f"array_bytes must be >= 1, got {self.array_bytes}"
            )
        object.__setattr__(
            self, "hardware", _normalise_overrides(self.hardware),
        )
        object.__setattr__(self, "scale", float(self.scale))
        from repro.backends import BACKEND_NAMES

        if self.backend not in BACKEND_NAMES:
            raise ConfigError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}"
            )

    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """Stable content hash of this spec (hex digest).

        ``backend`` participates only when it is not the default
        ``"analytic"`` — default-backend hashes are unchanged from before
        the field existed, so recorded provenance and cache keys stay
        valid.
        """
        parts = [
            "runspec", self.dataset, self.seed, self.micro_batch,
            self.scale, self.array_bytes, self.hardware, self.accelerator,
        ]
        if self.backend != "analytic":
            parts.append(("backend", self.backend))
        return cache_key(*parts)

    def resolve_config(self) -> HardwareConfig:
        """The hardware configuration this spec deterministically implies."""
        return DEFAULT_CONFIG.scaled(
            array_capacity_bytes=self.array_bytes, **dict(self.hardware),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serialisable for simple override values)."""
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "micro_batch": self.micro_batch,
            "scale": self.scale,
            "array_bytes": self.array_bytes,
            "hardware": [list(pair) for pair in self.hardware],
            "accelerator": self.accelerator,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(payload, Mapping):
            raise ConfigError("RunSpec payload must be a mapping")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown RunSpec field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = dict(payload)
        hardware = kwargs.get("hardware")
        if hardware is not None:
            kwargs["hardware"] = tuple(
                (str(name), value) for name, value in hardware
            )
        return cls(**kwargs)
