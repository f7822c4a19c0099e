"""GoPIMSystem facade: plans and prices on the current session."""

import numpy as np
import pytest

from repro.accelerators import gopim
from repro.core.gopim import GoPIMSystem
from repro.runtime import RunSpec, Session

#: A 4 MiB array: small enough that the budget binds the allocation.
SMALL_CHIP = Session(RunSpec(array_bytes=4 * 1024 ** 2))


@pytest.fixture
def system():
    with SMALL_CHIP.use():
        yield GoPIMSystem()


def test_plan_structure(system, small_workload):
    plan = system.plan(small_workload)
    assert set(plan.predicted_times_ns) == {
        s.name for s in small_workload.stage_chain()
    }
    assert plan.replicas.shape == (small_workload.num_stages,)
    assert np.any(plan.replicas > 1)
    assert plan.update_plan.mapping.strategy == "interleaved"
    assert 0 < plan.theta <= 1.0


def test_adaptive_theta_in_plan(system, small_workload):
    plan = system.plan(small_workload)
    # small_graph has average degree ~10 -> dense -> theta 0.5.
    assert plan.theta == 0.5


def test_theta_override(small_workload):
    with SMALL_CHIP.use():
        assert GoPIMSystem(theta=0.75).plan(small_workload).theta == 0.75


def test_simulate(system, small_workload):
    report = system.simulate(small_workload)
    assert report.accelerator == "GoPIM"
    assert report.total_time_ns > 0


def test_train(system, small_graph):
    result = system.train(small_graph, task="node", epochs=5)
    assert len(result.test_metrics) == 5


def test_plans_on_the_session_chip_and_predictor(system, small_workload):
    # The facade takes no config or predictor: both come from the
    # session it runs in, so it matches GoPIM priced on that session's
    # config with that session's fitted predictor, and not the default
    # session's larger chip.
    predictor = SMALL_CHIP.predictor()
    plan = system.plan(small_workload)
    assert plan.predicted_times_ns == predictor.predict_stage_times(
        small_workload,
    )
    expected = gopim(time_predictor=predictor).run(
        small_workload, SMALL_CHIP.config,
    )
    report = system.simulate(small_workload)
    assert report.total_time_ns == expected.total_time_ns
    assert report.energy_pj == expected.energy_pj
    np.testing.assert_array_equal(plan.replicas, expected.replicas)
    with Session().use():
        default_chip = GoPIMSystem().plan(small_workload)
    assert not np.array_equal(default_chip.replicas, plan.replicas)
