"""Crossbar resource allocation: Algorithm 1 and baseline policies."""

from repro.allocation.heap import FlatMaxKeys, LazyMaxKeys
from repro.allocation.problem import AllocationProblem, AllocationResult
from repro.allocation.greedy import (
    greedy_allocation,
    greedy_allocation_reference,
)
from repro.allocation.batched import allocate_many
from repro.allocation.baselines import (
    combination_only_allocation,
    exhaustive_allocation,
    fixed_ratio_allocation,
    serial_allocation,
    uniform_allocation,
)

__all__ = [
    "FlatMaxKeys",
    "LazyMaxKeys",
    "AllocationProblem",
    "AllocationResult",
    "greedy_allocation",
    "greedy_allocation_reference",
    "allocate_many",
    "combination_only_allocation",
    "exhaustive_allocation",
    "fixed_ratio_allocation",
    "serial_allocation",
    "uniform_allocation",
]
