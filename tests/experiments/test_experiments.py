"""Per-experiment smoke + shape checks (fast parameterisations).

The quarter-scale checks run under a ``RunSpec(scale=0.25)`` session:
experiments take their workload scale from the session, not a
parameter.
"""

import pytest

from repro.experiments import fig04_idle, fig05_example, fig06_degree
from repro.experiments import fig07_osu, fig13_overall, fig14_ablation
from repro.experiments import fig15_idle_batch, fig16_sensitivity
from repro.experiments import fig17_scalability, tab05_accuracy
from repro.experiments import tab06_replicas, tab07_ml_vs_profiling
from repro.runtime import RunSpec, Session

QUARTER = Session(RunSpec(scale=0.25))


def test_fig05_matches_paper_exactly():
    result = fig05_example.run()
    makespans = result.column("makespan (units)")
    assert makespans == [52.0, 18.0, 16.0]
    improvements = result.column("improvement %")
    assert improvements[1] == pytest.approx(65.4, abs=0.1)
    assert improvements[2] == pytest.approx(69.2, abs=0.1)


def test_fig04_co_stages_idle():
    with QUARTER.use():
        result = fig04_idle.run(datasets=("ddi",))
    row = result.rows[0]
    co_idle = row["XBS1 (CO1)"]
    ag_idle = row["XBS2 (AG1)"]
    assert co_idle > 70.0          # CO pools mostly idle
    assert co_idle > ag_idle       # and idler than AG pools


def test_fig06_index_skew_interleaved_balance():
    result = fig06_degree.run(datasets=("proteins",))
    row = result.rows[0]
    assert row["index spread"] > 3.0
    assert row["interleaved spread"] < row["index spread"]


def test_fig07_toy_matches_paper():
    result = fig07_osu.run(datasets=())
    toy = result.rows[0]
    assert toy["full update cycles"] == 4
    assert toy["OSU cycles"] == 4      # no reduction
    assert toy["ISU cycles"] == 2      # halves


def test_fig07_dataset_scale():
    with QUARTER.use():
        result = fig07_osu.run(datasets=("ddi",))
    row = result.rows[1]
    assert row["ISU cycles"] < row["full update cycles"]
    assert row["OSU cycles"] > row["ISU cycles"]


def test_fig13_shapes():
    with QUARTER.use():
        result = fig13_overall.run(datasets=("ddi",))
    by_system = {r["system"]: r for r in result.rows}
    assert by_system["Serial"]["speedup"] == pytest.approx(1.0)
    assert by_system["GoPIM"]["speedup"] == max(
        r["speedup"] for r in result.rows
    )
    assert by_system["GoPIM"]["speedup"] > by_system["GoPIM-Vanilla"]["speedup"]
    assert by_system["GoPIM"]["energy saving"] > 1.0


def test_fig14_monotone_ablation():
    with QUARTER.use():
        result = fig14_ablation.run(datasets=("ddi",))
    speedups = {r["variant"]: r["speedup"] for r in result.rows}
    assert speedups["Serial"] == pytest.approx(1.0)
    assert speedups["+PP"] > 1.0
    assert speedups["+ISU"] > speedups["+PP"]
    assert speedups["GoPIM"] > speedups["+ISU"]


def test_fig15_idle_reduction():
    with QUARTER.use():
        result = fig15_idle_batch.run(micro_batches=(32,))
    row = result.rows[0]
    assert row["GoPIM avg idle %"] < row["Naive avg idle %"]
    assert row["reduction (points)"] > 0


def test_fig16c_speedup_grows_with_batch():
    # The paper's rising trend holds while the epoch still contains many
    # micro-batches; at our scaled-down N that means the small-b regime.
    result = fig16_sensitivity.speedup_vs_batch(batches=(16, 32))
    speedups = result.column("speedup")
    assert speedups[1] > speedups[0]


def test_fig17_dimension_sweep():
    with QUARTER.use():
        result = fig17_scalability.run(dimensions=(256, 1024))
    dim_rows = [r for r in result.rows if r["panel"] == "a (dimension)"]
    assert all(r["speedup"] > 1.0 for r in dim_rows)
    products = [r for r in result.rows if r["panel"] == "b (products)"][0]
    assert products["speedup"] > 1.0
    assert products["energy saving"] > 1.0


def test_tab05_small_accuracy_delta():
    # ISU converges slower in the earliest epochs (staleness), so the
    # comparison needs enough epochs to be past the transient.
    with QUARTER.use():
        result = tab05_accuracy.run(datasets=("arxiv",), epochs=30)
    row = result.rows[0]
    assert abs(row["impact (points)"]) < 12.0
    assert row["theta"] in (0.5, 0.8)


def test_tab06_structure():
    with QUARTER.use():
        result = tab06_replicas.run()
    serial_row = next(r for r in result.rows if r["method"] == "Serial")
    gopim_row = next(r for r in result.rows if r["method"] == "GoPIM")
    assert gopim_row["total crossbars"] > serial_row["total crossbars"]
    # Serial is one replica everywhere.
    assert all(
        v.startswith("1 x") for k, v in serial_row.items()
        if k not in ("method", "total crossbars")
    )


def test_tab07_ml_close_to_profiling():
    with QUARTER.use():
        result = tab07_ml_vs_profiling.run(datasets=("ddi",))
    row = result.rows[0]
    assert row["difference %"] < 50.0
    assert row["profiling overhead (ms)"] > 0


def test_session_caches():
    from repro.runtime import Session

    session = Session()
    a = session.workload("cora", seed=0)
    b = session.workload("cora", seed=0)
    assert a is b
    session.clear_caches()
    c = session.workload("cora", seed=0)
    assert c is not a
