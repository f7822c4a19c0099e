"""Hardware/training co-simulation."""

import numpy as np
import pytest

from repro.accelerators import gopim, gopim_vanilla, serial
from repro.core import CoSimResult, CoSimulation
from repro.errors import TrainingError
from repro.runtime import RunSpec, Session


@pytest.fixture(scope="module")
def arxiv_graph():
    return Session(RunSpec(scale=0.5)).graph("arxiv", seed=0)


def test_cosim_result_accounting():
    result = CoSimResult(
        epoch_times_ns=[10.0, 10.0, 20.0],
        test_metrics=[0.3, 0.6, 0.9],
        losses=[1.0, 0.5, 0.2],
    )
    assert result.total_time_ns == 40.0
    np.testing.assert_allclose(result.cumulative_times_ns, [10, 20, 40])
    assert result.time_to_accuracy_ns(0.5) == 20.0
    assert result.time_to_accuracy_ns(0.95) is None
    assert result.best_test_metric == 0.9


def test_cosim_runs_and_learns(arxiv_graph):
    cosim = CoSimulation(gopim())
    result = cosim.run(arxiv_graph, "arxiv", epochs=12)
    assert len(result.epoch_times_ns) == 12
    assert result.best_test_metric > 0.5
    assert result.total_time_ns > 0


def test_minor_refresh_epochs_cost_more(arxiv_graph):
    cosim = CoSimulation(gopim())
    result = cosim.run(arxiv_graph, "arxiv", epochs=3)
    # Epoch 0 is a full refresh round; epochs 1-2 write only the
    # important set, so they must be cheaper.
    assert result.epoch_times_ns[0] > result.epoch_times_ns[1]
    assert result.epoch_times_ns[1] == pytest.approx(
        result.epoch_times_ns[2],
    )


def test_gopim_beats_vanilla_time_to_accuracy(arxiv_graph):
    epochs = 12
    gopim_run = CoSimulation(gopim()).run(
        arxiv_graph, "arxiv", epochs=epochs,
    )
    vanilla_run = CoSimulation(gopim_vanilla()).run(
        arxiv_graph, "arxiv", epochs=epochs,
    )
    target = 0.5
    t_gopim = gopim_run.time_to_accuracy_ns(target)
    t_vanilla = vanilla_run.time_to_accuracy_ns(target)
    assert t_gopim is not None and t_vanilla is not None
    assert t_gopim < t_vanilla


def test_serial_epochs_uniform_cost(arxiv_graph):
    result = CoSimulation(serial()).run(
        arxiv_graph, "arxiv", epochs=3,
    )
    # Full updating every epoch: identical per-epoch hardware time.
    assert result.epoch_times_ns[0] == pytest.approx(result.epoch_times_ns[1])


def test_epochs_validation(arxiv_graph):
    with pytest.raises(TrainingError):
        CoSimulation(gopim()).run(arxiv_graph, "arxiv", epochs=0)


@pytest.mark.parametrize("make_accelerator", [gopim, serial])
def test_epoch_tables_match_scalar_reference(arxiv_graph, make_accelerator):
    # The co-simulator's per-phase epoch table (the analytic backend with
    # the write phase pinned) must reproduce the per-micro-batch scalar
    # loop exactly, for both epoch phases (minor refresh and
    # important-only rounds), on real allocations.
    from repro.backends import EpochProgram, get_backend
    from repro.stages.workload import workload_from_dataset
    from tests.oracles.cosim import epoch_times_reference

    accelerator = make_accelerator()
    workload = workload_from_dataset("arxiv", graph=arxiv_graph)
    timing = accelerator.build_timing_model(workload)
    problem = accelerator._build_problem(timing)
    replicas = np.asarray(
        accelerator.allocator(problem).replicas, dtype=np.int64,
    )
    analytic = get_backend("analytic")
    for full_round in (True, False):
        table = analytic.stage_time_matrix(EpochProgram(
            timing=timing, replicas=replicas, full_round=full_round,
        ))
        reference = epoch_times_reference(timing, replicas, full_round)
        assert np.array_equal(table, reference)
