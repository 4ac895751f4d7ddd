"""The claims ledger: README's "Status" table, one row per claim of the
abstract and suite, must state what each suite's campaign gives today
(ROADMAP item 22).  The table is the one copy of the expected counts."""

import pathlib

from bohrlab.harness import SUITES, CampaignConfig, run_campaign

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _status_rows() -> list:
    """The (claim, suite, passed, certified) cells of README's Status table."""
    section = README.read_text().split("\n## Status\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    assert lines[0] == "| claim | suite | passed | certified |"
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def test_status_table_states_every_campaign(tmp_path):
    rows = _status_rows()
    assert [suite for _, suite, *_ in rows if suite in SUITES] == list(SUITES)
    assert [cells for _, *cells in rows if cells[0] not in SUITES] == [
        ["omega-gamma", "no campaign yet (item 3(c))", ""],
        ["half-plane", "no campaign yet (item 3(c))", ""]]
    for _, suite, passed, certified in rows:
        if suite in SUITES:
            report = run_campaign(CampaignConfig(suite=suite, trials=60, seed=3, dim=3,
                                                 degree=64, out=str(tmp_path / f"{suite}.json")))
            assert (passed, certified) == (f"{report.pass_count}/60",
                                           f"{report.certified_count}/60"), suite
