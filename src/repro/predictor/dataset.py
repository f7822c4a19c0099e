"""Training-data generation for the execution-time predictor (Section V-A).

The paper records the execution times of all stages of six workloads for
30 epochs (~2,200 samples) on the ReRAM simulator.  We do the analogous
thing against our analytic timing model: draw random workloads (graph
size, density, feature dimensions, depth, micro-batch), compute each
stage's no-replica time on the current session's hardware, perturb it
with multiplicative measurement noise, and emit (Table I features, log10
time) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Tuple

import numpy as np

from repro.errors import PredictorError
from repro.graphs.generators import RandomState, _rng, dc_sbm_graph
from repro.hardware.config import HardwareConfig
from repro.perf import cache_key
from repro.predictor.features import stage_samples
from repro.runtime import current_session
from repro.stages.latency import StageTimingModel
from repro.stages.workload import Workload
from repro.perf import profile

#: Vertex-count range of the random training workloads.
MIN_VERTICES = 192
MAX_VERTICES = 1536

#: Spread of the multiplicative log-normal noise on each sample's target
#: (measurement jitter across epochs).
NOISE_SIGMA = 0.02


@dataclass(frozen=True)
class PredictorDataset:
    """Feature matrix, targets, and provenance of one generated dataset."""

    features: np.ndarray
    targets: np.ndarray
    stage_names: List[str]

    @property
    def num_samples(self) -> int:
        """Number of (stage, workload) samples."""
        return int(self.targets.size)

    def split(
        self,
        train_fraction: float = 0.8,
        random_state: RandomState = 0,
    ) -> Tuple["PredictorDataset", "PredictorDataset"]:
        """Shuffle-split into train/test (the paper's 8:2)."""
        if not 0.0 < train_fraction < 1.0:
            raise PredictorError("train_fraction must be in (0, 1)")
        rng = _rng(random_state)
        order = rng.permutation(self.num_samples)
        cut = int(round(train_fraction * self.num_samples))
        train_idx, test_idx = order[:cut], order[cut:]
        return (
            PredictorDataset(
                self.features[train_idx], self.targets[train_idx],
                [self.stage_names[i] for i in train_idx],
            ),
            PredictorDataset(
                self.features[test_idx], self.targets[test_idx],
                [self.stage_names[i] for i in test_idx],
            ),
        )


def random_workload(rng: np.random.Generator) -> Workload:
    """Draw one random GCN workload for predictor training."""
    num_vertices = int(rng.integers(MIN_VERTICES, MAX_VERTICES + 1))
    avg_degree = float(rng.uniform(3.0, 64.0))
    num_layers = int(rng.integers(2, 4))
    dims: List[Tuple[int, int]] = []
    d_in = int(rng.choice([8, 32, 58, 64, 100, 128, 256]))
    for _ in range(num_layers):
        d_out = int(rng.choice([32, 64, 112, 128, 256]))
        dims.append((d_in, d_out))
        d_in = d_out
    micro_batch = int(rng.choice([32, 64, 128]))
    graph = dc_sbm_graph(
        num_vertices=num_vertices,
        num_communities=max(2, num_vertices // 128),
        avg_degree=min(avg_degree, num_vertices / 4),
        random_state=rng,
        name="predictor-train",
    )
    return Workload(graph=graph, layer_dims=dims, micro_batch=micro_batch)


def samples_config_key(config: HardwareConfig) -> Tuple:
    """The part of ``config`` a predictor sample reads, as a key part.

    Every field but ``array_capacity_bytes``: a sample is a no-replica
    stage time, and the array budget only sizes the allocator's replica
    pool.  Sessions that differ only in their budget therefore share one
    generated dataset and one fitted predictor.
    """
    return tuple(
        (field.name, getattr(config, field.name))
        for field in fields(config)
        if field.name != "array_capacity_bytes"
    )


def generate_dataset(
    num_samples: int = 2200,
    random_state: int = 0,
) -> PredictorDataset:
    """Generate ~``num_samples`` (feature, log-time) pairs.

    Each random workload contributes one sample per stage; multiplicative
    log-normal noise models measurement jitter across epochs.  Stage
    times are priced on the current session's hardware configuration.
    Generation is deterministic, so the whole dataset is memoised in the
    session's artifact cache.
    """
    if num_samples < 1:
        raise PredictorError("num_samples must be >= 1")
    session = current_session()
    config = session.config
    key = cache_key(
        num_samples, int(random_state), float(NOISE_SIGMA),
        samples_config_key(config),
    )
    return session.cache.get_or_compute(
        "predictor-datasets", key,
        lambda: _generate(num_samples, random_state, config),
    )


@profile.phase(profile.PHASE_DATASET)
def _generate(
    num_samples: int,
    random_state: int,
    config: HardwareConfig,
) -> PredictorDataset:
    rng = np.random.default_rng(random_state)
    feature_rows: List[np.ndarray] = []
    target_rows: List[np.ndarray] = []
    names: List[str] = []
    while sum(t.size for t in target_rows) < num_samples:
        workload = random_workload(rng)
        model = StageTimingModel(workload, config)
        feats, targets, stage_names = stage_samples(model)
        targets = targets + rng.normal(0.0, NOISE_SIGMA, size=targets.shape)
        feature_rows.append(feats)
        target_rows.append(targets)
        names.extend(stage_names)
    features = np.vstack(feature_rows)[:num_samples]
    targets = np.concatenate(target_rows)[:num_samples]
    return PredictorDataset(features, targets, names[:num_samples])
