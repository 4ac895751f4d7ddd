"""The claims ledger: README's "Status" tables, one row per claim of the
abstract and suite, and one per suite at degree 16, must state what
each suite's campaign gives today (ROADMAP items 22 and 28).  The
tables are the one copy of the expected counts and widths."""

import pathlib

import numpy as np

from bohrlab.harness import SUITES, CampaignConfig, run_campaign

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _status_tables() -> list:
    """The tables of README's Status section, each as its header line
    and its rows of cells."""
    section = README.read_text().split("\n## Status\n", 1)[1].split("\n## ", 1)[0]
    tables = [block.splitlines() for block in section.split("\n\n")
              if block.startswith("|")]
    return [(lines[0], [[cell.strip() for cell in line.strip("|").split("|")]
                        for line in lines[2:]]) for lines in tables]


def _campaign(tmp_path, suite, degree):
    return run_campaign(CampaignConfig(suite=suite, trials=60, seed=3, dim=3, degree=degree,
                                       out=str(tmp_path / f"{suite}-{degree}.json")))


def test_status_table_states_every_campaign(tmp_path):
    (header, rows), _ = _status_tables()
    assert header == "| claim | suite | passed | certified |"
    assert [suite for _, suite, *_ in rows if suite in SUITES] == list(SUITES)
    assert [cells for _, *cells in rows if cells[0] not in SUITES] == [
        ["omega-gamma", "no campaign yet (item 3(c))", ""],
        ["half-plane", "no campaign yet (item 3(c))", ""]]
    for _, suite, passed, certified in rows:
        if suite in SUITES:
            report = _campaign(tmp_path, suite, 64)
            assert (passed, certified) == (f"{report.pass_count}/60",
                                           f"{report.certified_count}/60"), suite


def test_degree_16_table_states_every_campaign_and_its_widths(tmp_path):
    # at degree 16 the class allowances are visible: the table gives the
    # pass and certified counts and the median and largest width of the
    # margins' enclosures, to two significant digits
    _, (header, rows) = _status_tables()
    assert header == ("| suite (seed 3, 60 trials, dim 3, degree 16) | passed | certified "
                      "| median width | max width |")
    assert [suite for suite, *_ in rows] == list(SUITES)
    for suite, *cells in rows:
        report = _campaign(tmp_path, suite, 16)
        widths = [r.width for r in report.records]
        assert cells == [f"{report.pass_count}/60", f"{report.certified_count}/60",
                         f"{np.median(widths):.1e}", f"{max(widths):.1e}"], suite
