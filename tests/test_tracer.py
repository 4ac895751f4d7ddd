"""The benchmark's tracer (perfbench/tracer.py) still installs: it wraps
every name in each layer's __all__, Majorant.bohr, Report.write and
cli.main, so deleting or renaming one of them would break traced
benchmark runs."""

import pathlib

import bohrlab
from bohrlab import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    compose, bohr = bohrlab.series.compose, bohrlab.series.Majorant.bohr
    tracer = Tracer(bohrlab)
    tracer.install()
    try:
        assert bohrlab.series.compose is not compose
        assert cli.main(["verify", "von-neumann", "--trials", "2", "--dim", "2", "--degree", "8",
                         "--out", str(tmp_path / "report.json")]) == 0
        assert cli.main(["table", "--families", "starlike",
                         "--out", str(tmp_path / "table.csv")]) == 0
    finally:
        tracer.uninstall()
    assert bohrlab.series.compose is compose and bohrlab.series.Majorant.bohr is bohr
    called = {tracer.names[i] for i in tracer.name_id}
    # the margins' norms must go through the public op_norms, and the
    # table's solves through the public radii.radius_table, or their time
    # would count as harness self time
    assert {"cli.main", "harness.run_campaign", "harness.Report.write", "series.compose",
            "zoo.expand", "opmat.op_norms", "harness.emit_radius_table",
            "radii.radius_table"} <= called
    # perfbench/run.py looks up these names' spans, so each must be traced
    assert {"harness.Report.write", "series.majorant", "series.compose", "series.mul",
            "series.Majorant.bohr", "zoo.gen_schur_matrix", "zoo.blaschke_series",
            "zoo.starlike_from_q", "zoo.build_polyanalytic", "radii.solve_radius",
            "radii.radius_poly_eval", "opmat.op_norms"} <= set(tracer.names)
