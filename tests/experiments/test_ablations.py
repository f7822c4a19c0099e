"""Ablation experiments: allocator quality/time, ISU design choices."""

import pytest

from repro.experiments import abl_allocator, abl_crossbar_size, abl_isu_design
from repro.runtime import RunSpec, Session

HALF = Session(RunSpec(scale=0.5))


def test_allocator_quality_order():
    with HALF.use():
        result = abl_allocator.run(datasets=("ddi",))
    rows = {r["policy"]: r for r in result.rows}
    greedy = rows["greedy (Algorithm 1)"]
    optimal = rows["exhaustive (DP stand-in)"]
    serial = rows["serial"]
    # Greedy near-optimal; both far better than serial / CO-only.
    assert greedy["makespan (us)"] <= 1.25 * optimal["makespan (us)"]
    assert greedy["speedup vs serial"] > 5.0
    assert rows["CO-only (ReFlip)"]["speedup vs serial"] < greedy["speedup vs serial"]
    assert serial["speedup vs serial"] == pytest.approx(1.0)


def test_allocator_decision_time_gap():
    with HALF.use():
        result = abl_allocator.run(datasets=("ddi",))
    rows = {r["policy"]: r for r in result.rows}
    # The paper's overhead story: greedy decides much faster than the
    # DP-style optimiser.
    assert (rows["greedy (Algorithm 1)"]["decision time (ms)"]
            < rows["exhaustive (DP stand-in)"]["decision time (ms)"])


def test_minor_period_tradeoff():
    with HALF.use():
        result = abl_isu_design.minor_period_sweep()
    cycles = result.column("avg write cycles")
    rows_written = result.column("rows written / epoch")
    # Longer periods strictly reduce both write metrics.
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))
    assert all(a >= b for a, b in zip(rows_written, rows_written[1:]))


def test_scope_count_improves_balance():
    with HALF.use():
        result = abl_isu_design.scope_count_sweep()
    by_k = {r["scopes K"]: r for r in result.rows}
    # Full stratification (K = 64) beats random dealing (K = 1).
    assert by_k[64]["per-crossbar degree std"] < by_k[1]["per-crossbar degree std"]


def test_write_pulse_gap_grows():
    with HALF.use():
        result = abl_isu_design.write_pulse_sweep(pulses=(1, 8))
    gains = result.column("ISU gain")
    assert gains[1] > gains[0] > 1.0


def test_allocator_problem_is_priced_on_the_session_hardware():
    # 128-row crossbars halve every stage's row tiles against the
    # 64-row default, so a problem tiled on the default config would
    # charge twice the crossbars against the session's budget.
    from repro.hardware.config import DEFAULT_CONFIG
    from repro.mapping.tiling import plan_tiling

    session = Session(RunSpec(scale=0.5, hardware={"crossbar_rows": 128}))
    with session.use():
        problem = abl_allocator.build_problem("ddi")
    stages = session.workload("ddi").stage_chain()

    def tiled(config):
        return [
            plan_tiling(s.mapped_rows, s.mapped_cols, config).num_crossbars
            for s in stages
        ]

    assert tiled(session.config) != tiled(DEFAULT_CONFIG)
    assert problem.crossbars_per_replica.tolist() == tiled(session.config)
    assert problem.budget == (
        session.config.total_crossbars - sum(tiled(session.config))
    )


def test_crossbar_size_sweep_is_priced_on_the_session_hardware():
    # Each swept size replaces only the crossbar geometry of the
    # session's config, so a run override (slower row writes) and the
    # run's array capacity both reach the rows.
    def rows(spec):
        with Session(spec).use():
            return abl_crossbar_size.run().rows

    default = rows(RunSpec(scale=0.5))
    slow_writes = rows(
        RunSpec(scale=0.5, hardware={"write_latency_ns": 200.0}),
    )
    assert [r["crossbar"] for r in slow_writes] == [
        r["crossbar"] for r in default
    ]
    assert slow_writes != default
    for slow, base in zip(slow_writes, default):
        assert slow["GoPIM time (ms)"] > base["GoPIM time (ms)"]
