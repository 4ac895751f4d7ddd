"""Test power: a campaign run on a broken hypothesis must fail, and the
same break where the theorem still holds must pass (ROADMAP item 17).

Each row breaks one suite by wrapping its prepare or harness.draw_schur
and runs 200 trials at --degree 64, which von-neumann expands only as
far as its tail bound needs at the row's radii.  The subordination and poly rows
(r_max 0.4, radius + 0.01) are not here: their trials pass until the
campaigns draw boundary instances or search for the worst one.
"""

import dataclasses

import pytest

from bohrlab import harness
from bohrlab.harness import SUITES, CampaignConfig, default_grid, run_campaign
from bohrlab.zoo import draw_schur


def _radii_up_to(r_max):
    """The suite's margins taken at r_max instead of its own radii."""
    def mutate(monkeypatch, suite):
        prepare = SUITES[suite].prepare

        def wrapped(config, **options):
            echo, _, growth, draw = prepare(config, **options)
            return echo, default_grid(r_max)[-1:], growth, draw

        monkeypatch.setitem(SUITES, suite, dataclasses.replace(SUITES[suite], prepare=wrapped))
    return mutate


def _no_scalar_head(monkeypatch, suite):
    """Every Schur draw the suites ask for with a scalar head f(0) = a I
    gets a general head instead."""
    def wrapped(rng, dim, **kw):
        return draw_schur(rng, dim, **{**kw, "scalar_head": False})

    monkeypatch.setattr(harness, "draw_schur", wrapped)


# (suite, mutation name, mutation, seed, dim, whether the campaign must
# fail, the degree it expands to); the comment gives the pass count and
# min margin measured when the row was added.  The expansion degree
# follows the radii: von-neumann's tail bound 1 is invisible past 38 at
# r = 1/3 and past 45 at r = 0.4
POWER_ROWS = [
    # some compositions' Bohr sums cross 1 between 1/3 and 0.4
    ("von-neumann", "radii-0.4", _radii_up_to(0.4), 1, 3, True, 45),  # 183/200, -0.0226
    ("von-neumann", "radii-0.4", _radii_up_to(0.4), 2, 3, True, 45),  # 190/200, -0.0197
    # a head f(0) that is not a multiple of I breaks the operator-valued theorem
    ("von-neumann", "no-scalar-head", _no_scalar_head, 1, 3, True, 38),  # 180/200, -0.170
    ("von-neumann", "no-scalar-head", _no_scalar_head, 2, 3, True, 38),  # 179/200, -0.263
    # controls: the scalar Bohr theorem needs no scalar head
    ("von-neumann", "no-scalar-head", _no_scalar_head, 1, 1, False, 38),
    ("von-neumann", "no-scalar-head", _no_scalar_head, 2, 1, False, 38),
]


@pytest.mark.parametrize(
    "suite, mutate, seed, dim, fails, expanded",
    [pytest.param(suite, mutate, seed, dim, fails, expanded,
                  id=f"{suite}-{name}-seed{seed}-dim{dim}")
     for suite, name, mutate, seed, dim, fails, expanded in POWER_ROWS])
def test_a_broken_hypothesis_fails(tmp_path, monkeypatch, suite, mutate, seed, dim, fails,
                                   expanded):
    mutate(monkeypatch, suite)
    report = run_campaign(CampaignConfig(suite=suite, trials=200, seed=seed, dim=dim, degree=64,
                                         out=str(tmp_path / "report.json")))
    assert (report.pass_count < 200) == fails, (report.pass_count, report.min_margin)
    assert report.config["expansion_degree"] == expanded
