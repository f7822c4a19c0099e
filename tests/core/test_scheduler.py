"""Multi-tenant chip scheduler."""

import pytest

from repro.core.scheduler import MultiTenantScheduler
from repro.errors import AllocationError
from repro.runtime import current_session


@pytest.fixture(scope="module")
def workloads():
    session = current_session()
    return [
        session.workload("cora", seed=0),
        session.workload("ddi", seed=0),
    ]


@pytest.fixture(scope="module")
def scheduler():
    return MultiTenantScheduler()


def test_equal_split_structure(scheduler, workloads):
    outcome = scheduler.equal_split(workloads)
    assert outcome.policy == "equal-split"
    assert len(outcome.placements) == 2
    budgets = {p.budget for p in outcome.placements}
    assert len(budgets) == 1  # equal shares
    assert outcome.slowest_ns == max(
        p.makespan_ns for p in outcome.placements
    )


def test_greedy_no_worse_than_equal(scheduler, workloads):
    equal = scheduler.equal_split(workloads)
    greedy = scheduler.greedy_split(workloads, quanta=16)
    # The min-max objective: greedy's slowest job must not regress much
    # (quantisation can cost a few percent).
    assert greedy.slowest_ns <= equal.slowest_ns * 1.05


def test_greedy_respects_total_budget(scheduler, workloads):
    outcome = scheduler.greedy_split(workloads, quanta=8)
    total = sum(p.budget for p in outcome.placements)
    assert total <= current_session().config.total_crossbars


def test_greedy_favours_heavier_job(scheduler, workloads):
    outcome = scheduler.greedy_split(workloads, quanta=16)
    by_name = {p.workload_name: p for p in outcome.placements}
    # ddi is the much heavier job; it should get the bigger share.
    assert by_name["ddi"].budget > by_name["cora"].budget


def test_validation(scheduler, workloads):
    with pytest.raises(AllocationError):
        scheduler.equal_split([])
    with pytest.raises(AllocationError):
        scheduler.greedy_split(workloads, quanta=0)
    with pytest.raises(AllocationError):
        scheduler.equal_split([workloads[0], workloads[0]])
