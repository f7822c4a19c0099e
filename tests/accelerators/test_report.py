"""Accelerator run reports."""

import pytest

from repro.accelerators.catalog import gopim, serial
from repro.accelerators.report import energy_table, render_report, stage_table


@pytest.fixture(scope="module")
def report(request):
    from repro.runtime import current_session

    session = current_session()
    workload = session.workload("cora", seed=0)
    return gopim().run(workload, session.config)


def test_stage_table_rows(report):
    rows = stage_table(report)
    assert [r["stage"] for r in rows] == report.stage_names
    for row in rows:
        assert row["replicas"] >= 1
        assert row["crossbars"] >= row["replicas"]
        assert 0.0 <= row["busy_fraction"] <= 1.0
        assert row["busy_fraction"] + row["idle_fraction"] == pytest.approx(
            1.0, abs=1e-6,
        )


def test_energy_table_sorted_and_complete(report):
    rows = energy_table(report)
    energies = [r["energy_pj"] for r in rows]
    assert energies == sorted(energies, reverse=True)
    assert sum(r["share"] for r in rows) == pytest.approx(1.0)
    categories = {r["category"] for r in rows}
    assert {"crossbar_read", "crossbar_write", "peripheral",
            "idle_leakage", "static"} <= categories


def test_render_report_markdown(report):
    md = render_report(report)
    assert md.startswith(f"# {report.accelerator} on cora")
    assert "| stage |" in md
    assert "| category |" in md
    assert "crossbars reserved" in md
    for name in report.stage_names:
        assert f"| {name} |" in md
