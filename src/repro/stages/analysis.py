"""Stage-time profiling: the Section III motivation numbers.

Computes the quantities the paper's motivation section quotes:

* the AG:CO execution-time ratio per layer and dataset (paper: up to
  888x–1595x on products, 247x average across datasets);
* the share of Aggregation time spent on vertex updating (paper: 52% of
  AG1+AG2 on ppa);
* the per-stage time distribution across micro-batches (the skew the
  degree-id correlation induces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.stages.latency import StageTimingModel
from repro.stages.stage import StageKind


@dataclass(frozen=True)
class StageProfile:
    """Timing profile of one stage across the epoch's micro-batches."""

    name: str
    mean_ns: float
    min_ns: float
    max_ns: float
    compute_share: float
    write_share: float

    @property
    def skew(self) -> float:
        """max/min per-micro-batch time (degree-skew fingerprint)."""
        return self.max_ns / max(self.min_ns, 1e-12)


def profile_stages(timing: StageTimingModel) -> List[StageProfile]:
    """Per-stage timing profiles (no replicas)."""
    profiles: List[StageProfile] = []
    for stage in timing.stages:
        totals = timing.microbatch_times_ns(stage, 1)
        writes = timing.write_times_ns(stage)
        total_sum = float(totals.sum())
        write_sum = float(writes.sum())
        profiles.append(StageProfile(
            name=stage.name,
            mean_ns=float(totals.mean()),
            min_ns=float(totals.min()),
            max_ns=float(totals.max()),
            compute_share=(
                1.0 - write_sum / total_sum if total_sum > 0 else 0.0
            ),
            write_share=write_sum / total_sum if total_sum > 0 else 0.0,
        ))
    return profiles


def aggregation_combination_ratios(timing: StageTimingModel) -> Dict[int, float]:
    """Per-layer AG:CO mean-time ratio (the paper's headline skew)."""
    by_layer: Dict[int, Dict[StageKind, float]] = {}
    for stage in timing.stages:
        if stage.kind in (StageKind.AGGREGATION, StageKind.COMBINATION):
            by_layer.setdefault(stage.layer, {})[stage.kind] = (
                timing.mean_stage_time_ns(stage, 1)
            )
    return {
        layer: times[StageKind.AGGREGATION] / times[StageKind.COMBINATION]
        for layer, times in sorted(by_layer.items())
        if StageKind.COMBINATION in times and StageKind.AGGREGATION in times
    }


def update_time_share(timing: StageTimingModel) -> float:
    """Vertex-updating share of total Aggregation-stage time.

    The paper quotes 52% for AG1+AG2 on ppa; this is the same quantity for
    whatever workload the timing model wraps.
    """
    write_total = 0.0
    stage_total = 0.0
    for stage in timing.stages:
        if stage.kind is not StageKind.AGGREGATION:
            continue
        # Python floats summed left to right: np.sum's pairwise order
        # would move the last bits of the recorded digests.
        for total, write in zip(
            timing.microbatch_times_ns(stage, 1).tolist(),
            timing.write_times_ns(stage).tolist(),
        ):
            stage_total += total
            write_total += write
    return write_total / stage_total if stage_total > 0 else 0.0
