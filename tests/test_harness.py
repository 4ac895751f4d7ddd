"""Campaign engine: configs, determinism, reports, failure replay,
sharpness scans, radius tables."""

import csv
import glob
import itertools
import json
import math
import os
import shutil
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrlab import harness, zoo
from bohrlab.harness import (
    SUITES,
    CampaignConfig,
    default_grid,
    emit_radius_table,
    replay,
    run_campaign,
    run_sharpness_scan,
)
from bohrlab.radii import FAMILIES, RadiusFamily, radius_poly_eval
from bohrlab.opmat import NumericalError, op_norms
from bohrlab.series import (
    MatrixSeries,
    _BohrGrid,
    _layers,
    derivative,
    majorant,
    mul,
    scalar_series,
)
from bohrlab.zoo import build_polyanalytic, convex_model, expand, starlike_from_q

RADIUS_TABLE = os.path.join(os.path.dirname(__file__), "radius_table.csv")
CAMPAIGN_RECORDS = os.path.join(os.path.dirname(__file__), "campaign_records.csv")


def small_config(tmp_path, suite, **kw):
    kw.setdefault("trials", 10)
    kw.setdefault("seed", 7)
    kw.setdefault("dim", 2)
    kw.setdefault("degree", 32)
    kw.setdefault("out", str(tmp_path / f"{suite}.json"))
    return CampaignConfig(suite=suite, **kw)


# ---------------------------------------------------------------- config

def test_out_directory_must_exist(tmp_path):
    with pytest.raises(ValueError, match="directory"):
        CampaignConfig(suite="subordination", out=str(tmp_path / "missing" / "r.json"))
    CampaignConfig(suite="subordination", out="r.json")


def test_config_validation():
    ok = dict(suite="subordination", trials=1, dim=1, degree=1)
    CampaignConfig(**ok)
    with pytest.raises(ValueError):
        CampaignConfig(suite="subordination", trials=0)
    with pytest.raises(ValueError):
        CampaignConfig(suite="subordination", dim=0)
    with pytest.raises(ValueError):
        CampaignConfig(suite="subordination", dim=17)
    with pytest.raises(ValueError):
        CampaignConfig(suite="subordination", degree=257)
    with pytest.raises(ValueError):
        CampaignConfig(suite="subordination", tolerance=math.inf)


def test_config_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'no-such-suite'"):
        CampaignConfig(suite="no-such-suite", trials=2)


def test_format_follows_the_extension(tmp_path):
    # a campaign writes its report as CSV to a .csv path and as JSON to
    # any other, and its config echo names no format
    for name in ("r.csv", "r.json", "r.txt"):
        out = str(tmp_path / name)
        report = run_campaign(CampaignConfig(suite="von-neumann", trials=2, dim=1, degree=8,
                                             out=out))
        assert "fmt" not in report.config
        with open(out) as fh:
            text = fh.read()
        if name == "r.csv":
            assert text.startswith("index,seed,params,")
        else:
            assert json.loads(text)["config"]["out"] == out


def test_default_grid():
    grid = default_grid(1 / 3)
    assert len(grid) == 20
    assert grid[-1] == pytest.approx(1 / 3)
    assert all(0 < r <= 1 / 3 + 1e-15 for r in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------- determinism

def test_reports_are_reproducible(tmp_path):
    cfg = small_config(tmp_path, "subordination")
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    da, db = a.describe(), b.describe()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_overflowing_margin_is_a_numerical_error():
    # norms of 1e308 sum past the float range at r = 1/2, on the value's
    # side and on the bound's alike
    big = np.zeros((8, 2, 2), dtype=np.complex128)
    big[:, 0, 0] = 1e308
    small = MatrixSeries(np.full((4, 2, 2), 1e-10 + 0j))
    for pair in ((MatrixSeries(big), None), (small, MatrixSeries(big))):
        with pytest.raises(NumericalError, match="not finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            harness._margin([pair], _BohrGrid([0.0, 0.5]))


def test_campaign_records_are_pinned(tmp_path):
    # every suite's records at the k = 1 defaults (dim 2, degree 32, 10
    # trials, seeds 1 and 2), margins as float hex: a reordered random
    # draw or a changed margin shows up trial by trial.  Margins get
    # 1e-12, since BLAS builds may round matrix products differently;
    # the drawn params (as JSON) and certified must match exactly, so a
    # lost tail certificate shows even where it moves a margin by less
    # than that
    with open(CAMPAIGN_RECORDS, newline="") as fh:
        expected = list(csv.DictReader(fh))
    actual = [(suite, record) for suite in SUITES for seed in (1, 2)
              for record in run_campaign(small_config(tmp_path, suite, seed=seed)).records]
    assert len(actual) == len(expected) == 120
    for (suite, record), row in zip(actual, expected):
        assert (suite, record.seed, record.index, record.passed) == (
            row["suite"], int(row["seed"]), int(row["index"]), row["passed"] == "True")
        assert record.worst_margin == pytest.approx(float.fromhex(row["worst_margin"]),
                                                    abs=1e-12)
        assert (json.dumps(record.params, sort_keys=True), str(record.certified)) == (
            row["params"], row["certified"])


def _coefficient_bytes(obj):
    """The coefficients of a series, a layered function's layers, or
    nothing for None, as bytes."""
    return b"".join(f.coeffs.tobytes() for f in (() if obj is None else _layers(obj)))


def _block_size(tmp_path, suite, dim, degree):
    """Trials per block of the suite's campaign, at its expansion degree."""
    config = small_config(tmp_path, suite, dim=dim, degree=degree)
    expanded = harness._prepare(config, SUITES[suite].options)[-1]
    return max(1, harness._BLOCK_ENTRIES // (dim**2 * (expanded + 1)))


@pytest.mark.parametrize("suite", list(SUITES))
def test_block_boundaries_do_not_leak_between_trials(tmp_path, monkeypatch, suite):
    # the trials run in blocks of b, drawn together and expanded in one
    # pass; a run of k trials must be the first k trials of a longer run,
    # records and compared functions bit for bit, wherever k falls
    # against the block boundaries
    dim, degree = 3, 64
    b = _block_size(tmp_path, suite, dim, degree)
    assert b > 2
    compared, margin = [], harness._margin

    def recording_margin(pairs, *args):
        compared.extend(_coefficient_bytes(value) + _coefficient_bytes(bound)
                        for value, bound in pairs)
        return margin(pairs, *args)

    monkeypatch.setattr(harness, "_margin", recording_margin)
    runs = {}
    for k in (2 * b + 1, 1, b - 1, b, b + 1):
        compared.clear()
        records = run_campaign(small_config(tmp_path, suite, trials=k, dim=dim, degree=degree,
                                            seed=11)).records
        assert len(compared) == k
        runs[k] = records, [r.worst_margin.hex() for r in records], list(compared)
    full = runs[2 * b + 1]
    for k, run in runs.items():
        assert run == tuple(column[:k] for column in full)


@pytest.mark.parametrize("suite", list(SUITES))
def test_a_block_makes_one_realization_per_scalar_head_kind(tmp_path, monkeypatch, suite):
    # every drawn Blaschke row is realized at the drawn order, so each
    # block's one expand realizes and expands its rows in at most two
    # calls each: those without a scalar head and those with one
    calls = []
    expand_ = zoo.expand

    def counted_expand(draws, degree):
        calls.append({})
        return expand_(draws, degree)

    def counted(name):
        function = getattr(zoo, name)

        def call(*args):
            calls[-1][name] = calls[-1].get(name, 0) + 1
            return function(*args)
        return call

    monkeypatch.setattr(harness, "expand", counted_expand)
    for name in ("_blaschke_realization", "_realization_series"):
        monkeypatch.setattr(zoo, name, counted(name))
    run_campaign(small_config(tmp_path, suite, trials=40, dim=3, degree=64))
    assert len(calls) > 1
    for count in calls:
        assert count["_blaschke_realization"] == count["_realization_series"] in (1, 2)


@pytest.mark.parametrize("suite", list(SUITES))
def test_block_margins_are_the_per_series_formulas_bit_for_bit(tmp_path, monkeypatch, suite):
    # one block of trials, its margins formed in one _margin call, must
    # equal each pair's margin from majorant(...).bohr on the 20-point
    # grid, for a series and a layered function alike; the replay's
    # one-pair block must equal it too.  Against the bound 1 the call
    # takes the grid's last radius alone
    dim, degree = 3, 64
    b = _block_size(tmp_path, suite, dim, degree)
    calls, margin = [], harness._margin

    def recording_margin(pairs, grid):
        calls.append((pairs, grid.r, margin(pairs, grid)))
        return calls[-1][2]

    monkeypatch.setattr(harness, "_margin", recording_margin)
    config = small_config(tmp_path, suite, trials=b, dim=dim, degree=degree, seed=3)
    report = run_campaign(config)
    assert len(calls) == 1
    pairs, radii, margins = calls[0]
    assert len(pairs) == b
    assert margins == [(r.worst_margin, r.certified, r.width) for r in report.records]
    if suite in ("subordination", "quasi"):
        assert {r.params["target"] for r in report.records} == {"schur", "convex", "starlike"}
    # quasi's margins are taken in w = r / beta, up to 1/3
    r_max = (report.config["radius"] - harness.POLY_GRID_GAP if suite.startswith("poly-")
             else 1.0 / 3.0 if suite == "quasi" else report.config["r_max"])
    grid = default_grid(r_max)
    bounded_by_one = suite == "von-neumann" or suite.startswith("poly-")
    assert tuple(radii) == (grid[-1:] if bounded_by_one else grid)
    for (value, bound), (worst, certified, width) in zip(pairs, margins):
        assert (bound is None) == bounded_by_one
        upper = majorant(value).bohr(grid)[1]
        lower = 1.0 if bound is None else majorant(bound).bohr(grid)[0]
        assert worst == float(np.min(lower - upper))
        assert margin([(value, bound)], harness._BohrGrid(grid)) == [
            (worst, certified, width)]


def test_low_degree_equality_case_fails_by_the_tail_allowance(tmp_path):
    # trials 1 and 2 compose a Schur and a starlike target g with a
    # rotation phi(z) = c z, so f and g have the same coefficient norms
    # and Bohr(f) = Bohr(g).  The margin compares f's upper end, which
    # adds the allowance of f's class past degree 16, with g's lower end,
    # the truncated sum; at r = 1/3 the allowance, r^17 / (1 - r) =
    # 1.16e-8 for the Schur class (1, 0) and tail(17, 1, 1) = 2.15e-7 for
    # the starlike class (1, 1), exceeds the tolerance 1e-8, and each
    # trial fails by exactly it
    cfg = CampaignConfig(suite="subordination", trials=4, seed=5, dim=2, degree=16,
                         out=str(tmp_path / "report.json"))
    report = run_campaign(cfg)
    *_, draw = SUITES["subordination"].prepare(cfg)
    grid = _BohrGrid([1 / 3])
    for index, target, allowance in ((1, "schur", (1 / 3) ** 17 / (1 - 1 / 3)),
                                     (2, "starlike", grid.tail(17, 1.0, 1)[0])):
        record = report.records[index]
        assert record.params["target"] == target and not record.passed and record.certified
        assert record.worst_margin == pytest.approx(-allowance, rel=1e-6)
        _, draws, _ = draw(harness._trial_rng(cfg.seed, index), cfg.degree)
        phi = expand(draws[:1], cfg.degree)[0].coeffs[:, 0, 0]
        assert abs(phi[1]) == pytest.approx(1.0, abs=1e-15)
        assert not np.any(np.delete(phi, 1))


# ---------------------------------------------------------------- campaigns

def test_subordination_campaign_passes(tmp_path):
    report = run_campaign(small_config(tmp_path, "subordination"))
    assert report.passed
    assert report.pass_count == report.trials == 10
    assert report.min_margin >= -1e-8
    assert report.config["r_max"] == pytest.approx(1 / 3)


def test_quasi_campaign_passes_across_parameters(tmp_path):
    for beta in (1.0, 0.9, 0.5):
        cfg = small_config(tmp_path, "quasi")
        report = run_campaign(cfg, quasi_beta=beta)
        assert report.passed, beta
        assert report.config["beta"] == beta
        assert report.config["r_max"] == pytest.approx(beta / 3)
    with pytest.raises(ValueError):
        run_campaign(small_config(tmp_path, "quasi"), quasi_beta=1.5)


def test_a_campaigns_grid_caches_one_block_of_allowances_at_most(tmp_path):
    # a convex target's class (beta, 0) is new in every trial, so a grid
    # that kept every class allowance would hold more arrays the more
    # trials it ran; _margin drops them after each block, and a fresh
    # grid per block gives the same bits
    config = small_config(tmp_path, "quasi", dim=3, degree=64)
    _, grid, draw, degree = harness._prepare(config, SUITES["quasi"].options)
    cached = []
    for first in range(0, 200, 20):
        indices = range(first, first + 20)
        trials = harness._trials(draw, degree, grid, config.seed, indices)
        assert trials == harness._trials(draw, degree, _BohrGrid(grid.r), config.seed, indices)
        # every array the grid caches, in whichever of its dicts
        cached.append(sum(len(d) for d in vars(grid).values() if isinstance(d, dict)))
    assert cached == [1] * 10


def test_quasi_trials_are_subordinations_draws(tmp_path):
    # quasi's draw is subordination's, plus one Schur multiplier
    config = small_config(tmp_path, "subordination", trials=30)
    reports = [run_campaign(config), run_campaign(small_config(tmp_path, "quasi", trials=30))]
    assert [r.params for r in reports[0].records] == [r.params for r in reports[1].records]


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("scale, beta", [(1.5, 0.9), (2.0, 0.5), (1.5, 0.2)])
def test_quasi_margins_are_those_of_the_original_variable(tmp_path, dim, scale, beta):
    # the reference margin in z: h = s(z / beta), whose coefficient n is
    # beta^-n s_n, times g o phi against g on default_grid(beta / 3),
    # from the same draws.  A multiplier bound M, h = M s(z / beta)
    # against M g, would scale the margin by M, as a Bohr sum is
    # positively homogeneous: the reference at M = scale is scale times
    # the campaign's margin
    config = small_config(tmp_path, "quasi", trials=12, dim=dim, degree=64)
    report = run_campaign(config, quasi_beta=beta)
    *_, draw = SUITES["quasi"].prepare(config, quasi_beta=beta)
    weights = beta ** -np.arange(config.degree + 1.0)
    grid = default_grid(beta / 3.0)
    for record in report.records:
        params, draws, _ = draw(harness._trial_rng(config.seed, record.index), config.degree)
        phi, *target, s = expand(draws, config.degree)
        g = (target[0] if params["target"] == "schur"
             else convex_model(params["beta"], config.degree) if params["target"] == "convex"
             else starlike_from_q(complex(*params["u"]), config.degree))
        fg = harness._subordinate(g, phi)
        for m in (1.0, scale):
            f = mul(MatrixSeries(s.coeffs * (m * weights)[:, None, None]), fg)
            margin = np.min(m * majorant(g).bohr(grid)[0] - majorant(f).bohr(grid)[1])
            assert m * record.worst_margin == pytest.approx(margin, rel=0, abs=1e-12 * m)
        assert params == record.params


def test_von_neumann_campaign_passes(tmp_path):
    report = run_campaign(small_config(tmp_path, "von-neumann"))
    assert report.passed
    # composed contractions keep their Bohr sum at most 1 up to 1/3
    assert report.min_margin >= -1e-8


# a poly suite's options per family: the family parameter, k and p
POLY_OPTIONS = (("general", dict(lam=1.0, k=1.0, p=3)), ("convex", dict(beta=0.5, k=0.5, p=2)),
                ("starlike", dict(k=1.0, p=2)))


def test_polyanalytic_campaigns_pass(tmp_path):
    for tag, options in POLY_OPTIONS:
        fam = RadiusFamily(tag, **options)
        cfg = small_config(tmp_path, f"poly-{fam.tag}")
        report = run_campaign(cfg, **options)
        assert report.passed, fam
        assert report.config["family"]["tag"] == fam.tag
        assert 0 < report.config["radius"] <= fam.cap


def test_polyanalytic_zero_ratio_margin_is_base_only(tmp_path):
    fam = RadiusFamily("general", lam=1.0, k=0.0, p=2)
    report = run_campaign(small_config(tmp_path, "poly-general"), lam=1.0, k=0.0, p=2)
    assert report.passed
    # with k = 0 the higher layer vanishes and the radius is the cap
    assert report.config["radius"] == pytest.approx(fam.cap)


def test_polyanalytic_margin_is_the_layered_sum_on_the_grid(tmp_path, monkeypatch):
    built = []

    def build(*args):
        built.append(build_polyanalytic(*args))
        return built[-1]

    monkeypatch.setattr(harness, "build_polyanalytic", build)
    for tag, options in POLY_OPTIONS:
        built.clear()
        cfg = small_config(tmp_path, f"poly-{tag}", trials=4)
        report = run_campaign(cfg, **options)
        grid = default_grid(report.config["radius"] - harness.POLY_GRID_GAP)
        assert [r.worst_margin for r in report.records] == [
            float(np.min(1.0 - majorant(fn).bohr(grid)[1])) for fn in built]


def test_polyanalytic_general_rejects_lambda_below_one(tmp_path):
    cfg = small_config(tmp_path, "poly-general")
    with pytest.raises(ValueError, match="lambda >= 1"):
        run_campaign(cfg, lam=0.5, k=1.0, p=3)
    assert not os.path.exists(cfg.out)


def test_polyanalytic_rejects_limit_order(tmp_path):
    with pytest.raises(ValueError):
        run_campaign(small_config(tmp_path, "poly-starlike"), k=1.0, p=math.inf)


# ---------------------------------------------------------------- failure path

def test_failing_trials_dump_replay_files(tmp_path):
    # an impossible tolerance forces every positive-margin trial to fail
    (tmp_path / "reports").mkdir()
    cfg = small_config(tmp_path, "subordination", trials=5, tolerance=-10.0,
                       out=str(tmp_path / "reports" / "r.json"))
    report = run_campaign(cfg)
    assert not report.passed
    assert report.pass_count == 0
    assert report.trials == 5  # the campaign kept going
    dumps = sorted(glob.glob(str(tmp_path / "reports" / "subordination-failure-*.json")))
    assert len(dumps) == 5
    with open(dumps[0]) as fh:
        payload = json.load(fh)
    assert payload["record"]["passed"] is False
    # the file replays without its report, or the report's directory
    shutil.rmtree(tmp_path / "reports")
    record = report.records[0]
    assert replay(payload) == (record.worst_margin, record.certified, record.width)


def test_replay_rejects_a_malformed_file(tmp_path):
    cfg = small_config(tmp_path, "von-neumann", trials=1, tolerance=-10.0)
    run_campaign(cfg)
    with open(tmp_path / "von-neumann-failure-00000.json") as fh:
        dump = json.load(fh)
    # the old format held the coefficients as "instance", and no options
    old = {**{key: dump[key] for key in ("suite", "config", "record")}, "instance": {}}
    with pytest.raises(ValueError, match="KeyError.'options'"):
        replay(old)
    for key in dump:
        with pytest.raises(ValueError, match=f"KeyError.'{key}'"):
            replay({k: v for k, v in dump.items() if k != key})
    for part, key in (("config", "seed"), ("config", "degree"), ("record", "index"),
                      ("record", "width"), ("record", "params"), ("record", "passed")):
        with pytest.raises(ValueError, match=f"KeyError.'{key}'"):
            replay({**dump, part: {k: v for k, v in dump[part].items() if k != key}})
    with pytest.raises(ValueError, match="malformed failure file: TypeError"):
        replay([])
    for part, key, value in (("config", "trials", None), ("config", "seed", "7"),
                             ("record", "index", 0.5)):
        with pytest.raises(ValueError, match="malformed failure file: TypeError"):
            replay({**dump, part: {**dump[part], key: value}})
    # the suite and the seed are stated twice, and each copy must agree
    # with the config's
    for edited in ({**dump, "suite": "quasi"}, {**dump, "record": {**dump["record"], "seed": 999}}):
        with pytest.raises(ValueError, match="malformed failure file: suite .* not the config's "
                                             "'von-neumann' and 7$"):
            replay(edited)
    # the record must be the re-drawn trial's, and a failed one
    with pytest.raises(ValueError, match=r"malformed failure file: record params \{'target': "
                                         r"'schur'\} and passed False are not the re-drawn "
                                         r"trial's \{\} and False$"):
        replay({**dump, "record": {**dump["record"], "params": {"target": "schur"}}})
    for passed in (True, None, 0):
        with pytest.raises(ValueError, match=rf"malformed failure file: record params \{{\}} and "
                                             rf"passed {passed!r} are not"):
            replay({**dump, "record": {**dump["record"], "passed": passed}})
    # the options must be those the campaign completed, and the config's
    # suite entries those prepare returns: run_campaign writes no other
    for options, message in (({"k": 0.3, "bogus": 1}, "ValueError.'k only applies to the "
                                                       "poly-general or poly-convex or "
                                                       "poly-starlike suite, not to von-neumann'"),
                             ({"bogus": 1}, "ValueError.'no suite reads bogus'")):
        with pytest.raises(ValueError, match=f"malformed failure file: {message}"):
            replay({**dump, "options": options})
    for r_max in (0.9, None):
        with pytest.raises(ValueError, match=rf"malformed failure file: options \{{\}} and config "
                                             rf"entries \{{'r_max': {r_max}\}} are not the "
                                             rf"completed \{{\}} and prepare's \{{'r_max': 0.333"):
            replay({**dump, "config": {**dump["config"], "r_max": r_max}})


@pytest.mark.parametrize("suite, options", [
    *(pytest.param(suite, {}, id=suite) for suite in SUITES),
    pytest.param("quasi", dict(quasi_beta=0.5), id="quasi-beta-0.5"),
    pytest.param("poly-convex", dict(beta=0.5, k=0.5), id="poly-convex-beta-0.5-k-0.5"),
    pytest.param("poly-starlike", dict(p=5), id="poly-starlike-p-5"),
])
def test_failure_files_replay_bit_for_bit(tmp_path, suite, options):
    # an impossible tolerance fails every trial; each file holds the
    # campaign's config, the suite's options and the trial's record,
    # which re-draw the trial without the report
    for dim, degree, trials in ((2, 16, 3), (3, 64, 3), (8, 128, 2)):
        (tmp_path / str(dim)).mkdir()
        cfg = small_config(tmp_path, suite, trials=trials, dim=dim, degree=degree,
                           tolerance=-10.0, out=str(tmp_path / str(dim) / "r.json"))
        report = run_campaign(cfg, **options)
        assert report.pass_count == 0
        _, grid, draw, degree = harness._prepare(cfg, {**SUITES[suite].options, **options})
        for record in report.records:
            path = tmp_path / str(dim) / f"{suite}-failure-{record.index:05d}.json"
            if dim == 8:
                assert os.path.getsize(path) < 2048
            with open(path) as fh:
                dump = json.load(fh)
            assert set(dump) == {"suite", "config", "options", "record"}
            assert dump["suite"] == suite
            assert dump["config"] == json.loads(json.dumps(report.config))
            assert dump["options"] == {**SUITES[suite].options, **options}
            assert dump["record"] == json.loads(json.dumps(vars(record)))
            [(params, _)] = harness._trials(draw, degree, grid, cfg.seed, [record.index])
            assert params == record.params
            assert replay(dump) == (record.worst_margin, record.certified, record.width)


@pytest.mark.parametrize("suite", list(SUITES))
def test_records_say_which_sides_are_certified(tmp_path, suite):
    # an upper end is proven only when every series summed carries a
    # growth class, and every series a campaign sums carries one: every
    # record is certified.  At degree 8 the tail allowances are well
    # above rounding: von-neumann's width at r_max, where its margin is
    # worst as the Bohr sum grows in r, is the allowance r^9 / (1 - r) of
    # its composition's class (1, 0), and poly-starlike's, against the
    # bound 1 too, is its layers' allowances at its one radius r: (1, 1)
    # for the base layer and (2 k, 2) for layer 1, weighted by r
    cfg = small_config(tmp_path, suite, trials=12, degree=8, seed=3)
    report = run_campaign(cfg)
    assert [r.certified for r in report.records] == [True] * 12
    assert report.certified_count == 12
    with open(cfg.out) as fh:
        payload = json.load(fh)
    assert payload["certified_count"] == report.certified_count
    assert [(r["certified"], r["width"]) for r in payload["records"]] == [
        (r.certified, r.width) for r in report.records]
    if suite == "subordination":
        assert {r.params["target"] for r in report.records} == {"schur", "convex", "starlike"}
    for r in report.records:
        assert r.width > 0.0
        if suite == "von-neumann":
            assert r.width == pytest.approx((1 / 3) ** 9 / (2 / 3), rel=1e-9)
        elif suite == "poly-starlike":
            radius = report.config["radius"] - harness.POLY_GRID_GAP
            grid = _BohrGrid([radius])
            assert r.width == pytest.approx(
                grid.tail(9, 1.0, 1)[0] + radius * grid.tail(9, 2.0, 2)[0], rel=1e-9)


# ---------------------------------------------------------------- expansion degree

def _bits(report):
    return [(r.index, r.params, r.worst_margin.hex(), r.passed, r.certified, r.width.hex())
            for r in report.records]


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
def test_von_neumann_expands_to_38_whatever_degree_allows_more(tmp_path, dim):
    # the tail bound 1 at r = 1/3 makes every term past 38 invisible:
    # degrees 64 and 128 give degree 38's records bit for bit, and say so
    trials = 12 if dim == 8 else 40
    reports = {degree: run_campaign(small_config(tmp_path, "von-neumann", trials=trials, dim=dim,
                                                 degree=degree, seed=dim))
               for degree in (38, 64, 128)}
    assert "expansion_degree" not in reports[38].config
    for degree in (64, 128):
        assert reports[degree].config == {**reports[38].config, "degree": degree,
                                          "expansion_degree": 38}
        assert _bits(reports[degree]) == _bits(reports[38])
        assert reports[degree].certified_count == trials


# Each suite's expansion degree at its default options and radii: the
# poly suites' at k = 1, p = 2.
EXPANSION_DEGREES = {"von-neumann": 38, "subordination": 42, "quasi": 45,
                     "poly-general": 42, "poly-convex": 42, "poly-starlike": 46}

# The poly configs of the benchmark's poly-d3 workload (k = 1) and their
# expansion degrees.
POLY_D3 = (("poly-general", dict(lam=1.0, k=1.0, p=3), 42),
           ("poly-convex", dict(beta=1.0, k=1.0, p=3), 42),
           ("poly-starlike", dict(k=1.0, p=5), 44))


def _expands_only_as_far_as_its_class_needs(tmp_path, monkeypatch, suite, dim, expanded,
                                            options=None):
    """Degrees 64 and 128 give degree N's records bit for bit, and say
    so; and they are the records of the full expansion to --degree,
    which _expansion_degree's proof says they may differ from only by
    rounding: bit for bit for subordination, margins within 1e-12 for
    the suites whose products round another way at another length, with
    every pass, certified flag and width the same."""
    options = options or {}
    trials = 12 if dim == 8 else 24

    def campaign(degree):
        return run_campaign(small_config(tmp_path, suite, trials=trials, dim=dim, degree=degree,
                                         seed=dim), **options)

    reports = {degree: campaign(degree) for degree in (expanded, 64, 128)}
    assert "expansion_degree" not in reports[expanded].config
    for degree in (64, 128):
        assert reports[degree].config == {**reports[expanded].config, "degree": degree,
                                          "expansion_degree": expanded}
        assert _bits(reports[degree]) == _bits(reports[expanded])
    monkeypatch.setattr(harness, "_expansion_degree", lambda degree, grid, growth: degree)
    for degree in (64, 128):
        full = campaign(degree)
        assert "expansion_degree" not in full.config
        if suite == "subordination":
            assert _bits(full) == _bits(reports[degree])
        for ours, theirs in zip(reports[degree].records, full.records):
            assert (ours.index, ours.params, ours.passed, ours.certified, ours.width.hex()) == (
                theirs.index, theirs.params, theirs.passed, theirs.certified, theirs.width.hex())
            assert ours.worst_margin == pytest.approx(theirs.worst_margin, rel=0, abs=1e-12)


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("suite", ("subordination", "quasi"))
def test_subordination_and_quasi_expand_only_as_far_as_their_class_needs(tmp_path, monkeypatch,
                                                                         suite, dim):
    _expands_only_as_far_as_its_class_needs(tmp_path, monkeypatch, suite, dim,
                                            EXPANSION_DEGREES[suite])


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("suite, options, expanded",
                         [pytest.param(*case, id=case[0]) for case in POLY_D3])
def test_poly_suites_expand_only_as_far_as_their_class_needs(tmp_path, monkeypatch, suite,
                                                             options, expanded, dim):
    _expands_only_as_far_as_its_class_needs(tmp_path, monkeypatch, suite, dim, expanded, options)


def test_expansion_stops_at_each_suites_own_degree(tmp_path, monkeypatch):
    # every suite expands to its own N; at --degree <= N a suite expands
    # to --degree, so its echo, records and nonzero low-degree widths are
    # what the degree gives
    degrees, expand = [], harness.expand

    def recording_expand(draws, degree):
        degrees.append(degree)
        return expand(draws, degree)

    monkeypatch.setattr(harness, "expand", recording_expand)
    for suite in SUITES:
        for degree in (16, 38, 39, 42, 43, 45, 46, 47, 64):
            degrees.clear()
            report = run_campaign(small_config(tmp_path, suite, trials=2, degree=degree))
            expanded = min(degree, EXPANSION_DEGREES[suite])
            assert set(degrees) == {expanded}
            assert report.config.get("expansion_degree", degree) == expanded
            if suite == "von-neumann" and degree == 16:
                assert all(r.width == pytest.approx((1 / 3) ** 17 / (2 / 3), rel=1e-9)
                           for r in report.records)


def _poly_options(tag):
    """The options a poly suite is checked at: Tier-1 criterion 09's k,
    p and beta, k = 0, and a family parameter of 2 (lambda 2, radius
    0.2; beta 2, whose base layer's bound 2 exceeds 1).  k = 2 is not
    among them: RadiusFamily refuses a k outside [0, 1]."""
    params = {"general": ({"lam": 1.0}, {"lam": 2.0}),
              "convex": ({"beta": 0.5}, {"beta": 1.0}, {"beta": 2.0}),
              "starlike": ({},)}[tag]
    return [{**param, "k": k, "p": p} for param in params
            for k in (0.0, 0.25, 0.5, 1.0) for p in (2, 3, 5)]


# The relative slack by which a stored norm may exceed the growth class
# its series carries: the rounding of the stored coefficients, which no
# class encloses yet (ROADMAP item 19).  It is measured, not proven: the
# largest excess seen is a convex subordinate's, beta (1 + 6.0e-15), in
# 3000 subordinate draws at dims 1, 2, 3, 5 and 8 and degree 64; the draws
# of the tests below reach 4.2e-15.
CLASS_SLACK = 6e-15


def _within_class(f, scale=1.0):
    """Whether the stored norms of f lie within its growth class, times
    scale (an array over the coefficients, or 1), up to CLASS_SLACK."""
    bound, exponent = f.growth
    cap = scale * bound * np.arange(1.0, f.degree + 2.0) ** exponent
    return bool(np.all(op_norms(f.coeffs) <= cap * (1.0 + CLASS_SLACK)))


@pytest.mark.parametrize("suite", list(SUITES))
def test_a_stated_tail_bound_covers_every_series_the_margin_sums(suite):
    # _expansion_degree's proof needs the class (c, t) every series the
    # margin sums carries to lie within the class (C, s) prepare states,
    # c <= C and t <= s; a poly suite states (K / (1 - r), s) for layers
    # within (K, s) at its grid's radius r, so a layer's c / (1 - r) is
    # checked against C.  Every stated C is at least 1, as
    # _expansion_degree's docstring assumes.  The stored norms must lie
    # within the stated class (a layer's, (K, s)), and within the carried
    # one (_within_class), through degree 64, over 20 trials, or 4 for
    # each poly option set
    config = CampaignConfig(suite, dim=3, degree=64)
    option_sets = (_poly_options(suite.removeprefix("poly-")) if suite.startswith("poly-")
                   else [SUITES[suite].options])
    for options in option_sets:
        _, radii, (stated, exponent), draw = SUITES[suite].prepare(config, **options)
        assert stated >= 1.0
        layered = suite.startswith("poly-")
        layer_bound = stated * (1.0 - max(radii)) if layered else stated
        cap = layer_bound * np.arange(1.0, config.degree + 2.0) ** exponent
        for index in range(4) if layered else range(20):
            _, draws, finish = draw(harness._trial_rng(5, index), config.degree)
            value, bound = finish(*expand(draws, config.degree))
            for f in _layers(value) + (() if bound is None else (bound,)):
                assert f.degree == config.degree and f.growth is not None
                c, t = f.growth
                assert (c / (1.0 - radii[0]) if layered else c) <= stated and t <= exponent
                assert np.all(op_norms(f.coeffs) <= cap) and _within_class(f)


def _tail_exact(tail_bound, exponent, r, size, terms):
    """sum_{size <= n < size + terms} C (n+1)^s r^n in exact arithmetic,
    for C = tail_bound, an integer s and a float r."""
    c, r = Fraction(tail_bound), Fraction(r)
    return sum(c * (n + 1) ** exponent * r**n for n in range(size, size + terms))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), st.integers(0, 3),
       st.one_of(st.just(0.0), st.floats(1e-3, 0.9)), st.integers(1, 80))
def test_the_class_tail_dominates_the_sum_it_bounds(tail_bound, exponent, r, size):
    # grid.tail(size, C, s) bounds sum_{n >= size} C (n+1)^s r^n: the
    # terms up to 8 past m, where the tail's geometric bound starts, are
    # summed exactly (m = size unless the class's own ratio q_n = r
    # ((n+2)/(n+1))^s reaches 1 at size, and then the first n >= size
    # with q_n <= (1 + r) / 2), and the rest, where the
    # ratio of consecutive terms is at most q_{m+8} < 1, are at most
    # term(m+8) / (1 - q_{m+8}), a proven remainder.  The allowance is
    # rounded, and 1 - q_m by a few ulps of 1, so it gets a relative
    # 1e-12 / (1 - q_m); C and r stay clear of underflow
    tail = _BohrGrid([r]).tail(size, tail_bound, exponent)[0]
    q = r * ((size + 2) / (size + 1)) ** exponent
    m = size if q < 1.0 else next(n for n in itertools.count(size)
                                  if r * ((n + 2) / (n + 1)) ** exponent <= (1.0 + r) / 2.0)
    q = r * ((m + 2) / (m + 1)) ** exponent
    end = m + 8
    q_rest = Fraction(r) * Fraction(end + 2, end + 1) ** exponent
    remainder = Fraction(tail_bound) * (end + 1) ** exponent * Fraction(r) ** end / (1 - q_rest)
    assert math.isfinite(tail) and tail >= 0.0
    assert Fraction(tail) * (1 + Fraction(1e-12 / (1.0 - q))) >= (
        _tail_exact(tail_bound, exponent, r, size, end - size) + remainder)


@pytest.mark.parametrize("size", (1, 2, 17, 39, 65, 129))
def test_the_class_tail_at_exponent_0_is_the_constant_bounds(size):
    # the sums add C r^size / (1 - r) for a constant tail bound C, and the
    # growth class (C, 0) gives it bit for bit
    for radii in (default_grid(1 / 3), default_grid(0.9), [0.0, 0.5, 0.99]):
        grid = _BohrGrid(radii)
        for tail_bound in (0.0, 1.0, 1.5, 2.0, 1e6):
            expected = tail_bound * grid.r**size / (1.0 - grid.r)
            assert grid.tail(size, tail_bound).tobytes() == expected.tobytes()
            assert grid.tail(size, tail_bound, 0).tobytes() == expected.tobytes()


# A poly-general lambda whose grid radius, 1e-8 short of its radius, is
# 2e-19, below 2^-60
TINY_RADIUS_LAMBDA = 49999999.499


def _suite_grids():
    """The (radii, growth class) pairs the suites' prepare states, at
    their default options, at another quasi beta and at a poly grid
    radius below 2^-60."""
    cases = [(suite, suite.options) for suite in SUITES.values()]
    cases += [(SUITES["quasi"], dict(quasi_beta=0.5))]
    cases += [(SUITES["poly-general"], dict(lam=TINY_RADIUS_LAMBDA, k=1.0, p=2))]
    return [suite.prepare(CampaignConfig(suite.name, dim=3, degree=64), **options)[1:3]
            for suite, options in cases]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 256),
       st.one_of(st.sampled_from(_suite_grids()),
                 st.tuples(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4),
                           st.tuples(st.floats(0.0, 1e6), st.sampled_from((0, 1, 2, 2.5))))))
def test_expansion_degree_is_the_smallest_with_an_invisible_tail(degree, case):
    # one array evaluation at the grid's largest radius gives the N of
    # the definition, a loop of grid.tail calls on the whole grid from
    # N = 1, on every suite's grid and class and on random ones
    radii, growth = case
    grid = _BohrGrid(radii)
    expected = next((n for n in range(1, degree)
                     if grid.tail(n + 1, *growth).max() <= 2.0**-60), degree)
    assert harness._expansion_degree(degree, grid, growth) == expected


def test_a_poly_grid_radius_below_the_invisible_tail_expands_to_1(tmp_path):
    # every tail allowance is invisible at a grid radius of 2e-19, and
    # the campaign expands to 1, the least degree the draws take
    report = run_campaign(small_config(tmp_path, "poly-general", trials=3),
                          lam=TINY_RADIUS_LAMBDA, k=1.0, p=2)
    assert report.passed and report.config["expansion_degree"] == 1


@st.composite
def _layer_profiles(draw, n=24):
    """(C, s, k, f_0, omega): random integer profiles of f_0 in the class
    (C, s), through degree n, and of omega in (k, 0)."""
    bound, exponent, k = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    f0 = [0] + [draw(st.integers(0, bound * (m + 1) ** exponent)) for m in range(1, n + 1)]
    omega = draw(st.lists(st.integers(0, k), min_size=n + 1, max_size=n + 1))
    return bound, exponent, k, f0, omega


@settings(max_examples=200, deadline=None)
@given(_layer_profiles())
# f_0 = z^5 and omega = z: the layer's coefficient 6 is 5 / 6, which a
# complex division rounds one ulp low
@example((1, 1, 1, [0] * 5 + [1] + [0] * 19, [0, 1] + [0] * 23))
def test_the_derivative_and_the_layer_integral_keep_their_classes(profile):
    # series.derivative takes (C, s) to (2^s C, s + 1), mul's rule takes
    # it and a ratio omega in (k, 0) to (2^s C k, s + 2), and
    # zoo.build_polyanalytic's integral takes that to (2^s C k, s + 1).
    # Checked on random integer profiles as 1x1 series of nonnegative
    # integers, whose norms are their coefficients: the code's derivative
    # and layer against their sums in exact arithmetic, correctly
    # rounded, which stay within the stated classes
    bound, exponent, k, f0, omega = profile
    n = len(f0) - 1
    df0 = [(j + 1) * f0[j + 1] for j in range(n)]
    assert derivative(scalar_series(f0)).coeffs[:, 0, 0].tolist() == df0
    assert all(df0[j] <= 2**exponent * bound * (j + 1) ** (exponent + 1) for j in range(n))
    layer = build_polyanalytic(scalar_series(f0), [scalar_series(omega)]).components[1]
    assert layer.degree == n and layer.coeffs[0, 0, 0] == 0
    for m in range(1, n + 1):
        product = sum(omega[i] * df0[m - 1 - i] for i in range(m))
        assert product <= 2**exponent * bound * k * m ** (exponent + 2)
        exact = Fraction(product, m)
        assert layer.coeffs[m, 0, 0] == float(exact)
        assert exact <= 2**exponent * bound * k * (m + 1) ** (exponent + 1)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_a_subordinate_carries_its_targets_certificate(dim):
    # f = g o phi (harness._subordinate) carries g's growth class: (1, 0)
    # for a Schur target, (beta, 0) for a convex one (Rogosinski) and
    # (1, 1) for a starlike one, and the stored coefficients of f and g
    # lie within it (_within_class); f's within 1, beta or, by
    # Rogosinski, n.  A rotation phi makes ||f_n|| = beta exactly for a
    # convex target, so the stored norms may exceed it by rounding
    config = CampaignConfig("subordination", dim=dim, degree=64)
    unit = np.zeros((config.degree + 1, dim, dim))
    unit[0] = np.eye(dim)
    n = np.arange(config.degree + 1.0)
    kinds = set()
    for index in range(100):
        rng = np.random.default_rng([dim, index])
        params, draws, model = harness._draw_target(rng, dim, config.degree)
        phi, *target = expand([harness._inner(rng)] + draws, config.degree)
        g = model or target[0]
        f = harness._subordinate(g, phi)
        kinds.add(params["target"])
        assert f.growth == g.growth == {"schur": (1.0, 0), "convex": (params.get("beta"), 0),
                                        "starlike": (1.0, 1)}[params["target"]]
        assert _within_class(f) and _within_class(g)
        cap = n if params["target"] == "starlike" else f.growth[0]
        assert np.all(op_norms(f.coeffs) <= cap * (1.0 + CLASS_SLACK))
        # quasi's finish, with the multiplier s = 1, gives the dilated
        # pair (f(beta .), g(beta .)): the dilated g keeps g's class, the
        # product with s, in (1, 0), adds a power by mul's rule, and
        # coefficient n of each meets beta^n times f's cap
        beta = (0.9, 0.5, 0.2)[index % 3]
        *_, draw = SUITES["quasi"].prepare(config, quasi_beta=beta)
        _, draws, finish = draw(np.random.default_rng([dim, index]), config.degree)
        value, bound = finish(*expand(draws[:-1], config.degree), MatrixSeries(unit, (1.0, 0)))
        assert (value.growth, bound.growth) == ((g.growth[0], g.growth[1] + 1), g.growth)
        for h in (value, bound):
            assert _within_class(h)
            assert np.all(op_norms(h.coeffs) <= beta**n * cap * (1.0 + CLASS_SLACK))
    assert kinds == {"schur", "convex", "starlike"}


@st.composite
def _series_in_class(draw, dim=None, degree=None, origin=False):
    """A random matrix series of a random growth class (C, s) whose
    stored norms lie within it, each at most C (n+1)^s and some of them
    at the bound; the coefficient 0 is zero when origin is set."""
    dim = draw(st.integers(1, 3)) if dim is None else dim
    degree = draw(st.integers(1, 24)) if degree is None else degree
    bound, exponent = draw(st.floats(0.1, 4.0)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=(degree + 1, dim, dim)) + 1j * rng.normal(size=(degree + 1, dim, dim))
    fill = np.where(rng.uniform(size=degree + 1) < 0.5, 1.0, rng.uniform(size=degree + 1))
    c *= (fill * bound * np.arange(1.0, degree + 2.0) ** exponent / op_norms(c))[:, None, None]
    if origin:
        c[0] = 0.0
    return MatrixSeries(c, (bound, exponent))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_series_in_class(d), _series_in_class(d))))
def test_mul_and_the_derivative_keep_their_inputs_in_their_classes(pair):
    # series.mul's product of (C1, s1) and (C2, s2) carries
    # (C1 C2, s1 + s2 + 1) and series.derivative's of (C, s) carries
    # (2^s C, s + 1); inputs within their classes give outputs within
    # theirs, up to the rounding CLASS_SLACK allows
    f, g = pair
    assert _within_class(f) and _within_class(g)
    product = mul(f, g)
    assert product.growth == (f.growth[0] * g.growth[0], f.growth[1] + g.growth[1] + 1)
    assert _within_class(product)
    for h in (f, g):
        dh = derivative(h)
        assert dh.growth == (2.0 ** h.growth[1] * h.growth[0], h.growth[1] + 1)
        assert _within_class(dh)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    _series_in_class(d, origin=True), st.lists(_series_in_class(d), min_size=1, max_size=3))))
def test_the_layers_of_build_polyanalytic_keep_their_classes(case):
    # layer l of f_0 in (C, s) and omega_l in (k, t) carries
    # (k 2^s C, s + t + 1): mul's rule on omega_l f_0', less the power
    # the integral takes; each lies within it
    f0, omegas = case
    (bound, exponent), fn = f0.growth, build_polyanalytic(f0, omegas)
    assert fn.components[0] is f0
    for layer, w in zip(fn.components[1:], omegas):
        assert layer.growth == (w.growth[0] * (2.0**exponent * bound),
                                exponent + w.growth[1] + 1)
        assert _within_class(layer)


@settings(max_examples=100, deadline=None)
@given(_series_in_class(degree=24), st.floats(0.05, 1.0))
def test_quasis_dilation_keeps_its_input_in_its_class(g, quasi_beta):
    # quasi's bound is the target g dilated by beta^n, which carries g's
    # class (C, s), as beta <= 1; fed a Schur trial's finish in place of
    # the Schur target, any g within its class gives a bound within it
    config = CampaignConfig("quasi", dim=g.dim, degree=24)
    *_, draw = SUITES["quasi"].prepare(config, quasi_beta=quasi_beta)
    index = next(i for i in range(100) if draw(harness._trial_rng(0, i), 24)[0] == {
        "target": "schur"})
    _, draws, finish = draw(harness._trial_rng(0, index), 24)
    phi, _, s = expand(draws, 24)
    _, bound = finish(phi, g, s)
    assert bound.growth == g.growth
    assert np.array_equal(bound.coeffs, g.coeffs * quasi_beta ** np.arange(25.0)[:, None, None])
    assert _within_class(bound)


# ---------------------------------------------------------------- reports

def test_report_json_file(tmp_path):
    cfg = small_config(tmp_path, "von-neumann", trials=4)
    report = run_campaign(cfg)
    with open(cfg.out) as fh:
        payload = json.load(fh)
    assert payload["suite"] == "von-neumann"
    assert payload["pass_count"] == 4
    assert len(payload["records"]) == 4
    assert payload["config"]["seed"] == cfg.seed


def test_report_csv_file(tmp_path):
    out = str(tmp_path / "rep.csv")
    cfg = CampaignConfig(suite="subordination", trials=6, seed=1, dim=2, degree=16, out=out)
    run_campaign(cfg)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["passed"] for r in rows} == {"True"}
    # margins round-trip as repr'd floats
    float(rows[0]["worst_margin"])


def _written_report(path):
    # out keeps the campaign's own report and any replay files next to path
    cfg = CampaignConfig(suite="subordination", trials=4, seed=5, dim=2, degree=16,
                         out=os.path.join(os.path.dirname(path), "campaign.json"))
    report = run_campaign(cfg)
    report.write(path)
    return report.describe(), [
        {"index": r.index, "seed": r.seed, "params": r.params,
         "worst_margin": r.worst_margin, "passed": r.passed, "certified": r.certified,
         "width": r.width}
        for r in report.records
    ]


def _written_table(path):
    rows = emit_radius_table(("general", "half-plane"), out=path)
    return rows, rows


def _cell_matches(text, value):
    if value is None:
        return text == ""
    if isinstance(value, (bool, str)):
        return text == str(value)
    if isinstance(value, dict):
        return json.loads(text) == value
    return float(text) == value  # exact: floats are written with repr


@pytest.mark.parametrize("write", [_written_report, _written_table])
def test_report_and_table_files_round_trip(tmp_path, write):
    # JSON to any path that does not end in .csv
    for name in ("out.json", "out.txt"):
        payload, _ = write(str(tmp_path / name))
        with open(tmp_path / name) as fh:
            assert json.load(fh) == payload

    _, rows = write(str(tmp_path / "out.csv"))
    with open(tmp_path / "out.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        loaded = list(reader)
    assert reader.fieldnames == list(rows[0])
    assert len(loaded) == len(rows)
    for got, want in zip(loaded, rows):
        for key, value in want.items():
            assert _cell_matches(got[key], value), (key, got[key], value)


# ---------------------------------------------------------------- sharpness

def test_sharpness_scan_locates_threshold():
    scan = run_sharpness_scan(0.9, 0.2, 0.45, 150)
    assert scan.first_exceed is not None
    assert scan.threshold == pytest.approx(1 / 2.8, abs=1e-9)
    assert scan.predicted_threshold == pytest.approx(1 / 2.8)
    assert len(scan.r_values) == 150


def test_sharpness_scan_window_above_threshold():
    # the window's first point already exceeds 1: bisect from r = 0
    scan = run_sharpness_scan(0.99, 0.4, 0.45, 50)
    assert scan.first_exceed == 0.4
    assert scan.threshold == pytest.approx(1 / 2.98, abs=1e-6)


def test_sharpness_scan_without_crossing():
    # for a = 0.5 the crossing sits at 0.5, outside this window
    scan = run_sharpness_scan(0.5, 0.0, 0.45, 50)
    assert scan.first_exceed is None
    assert scan.threshold is None
    with pytest.raises(ValueError):
        run_sharpness_scan(0.9, 0.4, 0.2, 50)


# ---------------------------------------------------------------- radius table

def test_radius_table_rows_and_files(tmp_path):
    rows = emit_radius_table(("omega-gamma", "half-plane"))
    # 4 k values x 4 p values x (3 gammas + 1 half-plane)
    assert len(rows) == 4 * 4 * 4
    by_key = {(r["family"], r["k"], r["p"], r.get("gamma")): r for r in rows}
    row = by_key[("omega-gamma", 1.0, 2, 0.0)]
    assert row["root"] == pytest.approx(math.sqrt(2) - 1, abs=1e-11)
    assert row["radius"] == pytest.approx(1 / 3)
    assert row["binding"] == "cap"
    # k = 0 leaves the base layer: 2 (1 - r) = r, beyond the cap 1/2
    base = by_key[("half-plane", 0.0, 2, None)]
    assert base["root"] == pytest.approx(2 / 3, abs=1e-11)
    assert base["radius"] == 0.5 and base["binding"] == "cap"

    out_json = str(tmp_path / "table.json")
    emit_radius_table(("starlike",), out=out_json)
    with open(out_json) as fh:
        assert len(json.load(fh)) == 16

    out_csv = str(tmp_path / "table.csv")
    emit_radius_table(("convex",), out=out_csv)
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32
    assert set(rows[0]) >= {"family", "k", "p", "root", "cap", "radius", "binding"}

    with pytest.raises(ValueError):
        emit_radius_table(("nope",))


@pytest.mark.parametrize("families", [(), ("convex", "convex"), ("starlike", "convex", "starlike")])
def test_radius_table_rejects_empty_or_repeated_families(families):
    with pytest.raises(ValueError, match="none twice"):
        emit_radius_table(families)


def test_full_radius_table_has_144_rows():
    # 4 k values x 4 p values x (2 lambdas + 3 gammas + 1 + 2 betas + 1)
    assert len(emit_radius_table()) == 144


def test_radius_table_is_pinned():
    # every row's root, bracket and radius as float hex, so any change to
    # the solver shows up row by row
    def cell(x):
        return "" if x is None else float(x).hex()

    with open(RADIUS_TABLE, newline="") as fh:
        expected = list(csv.reader(fh))
    actual = [["family", "k", "p", "param", "root", "bracket_lo", "bracket_hi", "radius"]]
    for row in emit_radius_table():
        spec = FAMILIES[row["family"]]
        actual.append([row["family"], str(row["k"]), str(row["p"]),
                       str(row[spec.label]) if spec.attr else "", cell(row["root"]),
                       cell(row["bracket_lo"]), cell(row["bracket_hi"]), cell(row["radius"])])
    assert len(actual) == 145
    assert actual == expected


def test_pinned_radius_table_passes_the_benchmark_check():
    # perfbench's table check on every pinned row: each bracket at most
    # 1e-12 wide, the float equation positive at its low end and
    # non-positive at its high end (or exactly 0.0 on a zero-width
    # bracket), and the radius min(root, cap); so a change to
    # radius_poly_eval that would fail the benchmark's check fails here
    with open(RADIUS_TABLE, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 144
    for row in rows:
        spec = FAMILIES[row["family"]]
        fam = RadiusFamily(row["family"], k=float(row["k"]), p=int(row["p"]),
                           **({spec.attr: float(row["param"])} if spec.attr else {}))
        radius = float.fromhex(row["radius"])
        if row["root"] == "":
            assert radius == fam.cap
            continue
        lo, hi, root = (float.fromhex(row[key]) for key in ("bracket_lo", "bracket_hi", "root"))
        f_lo, f_hi = radius_poly_eval(fam, lo), radius_poly_eval(fam, hi)
        assert hi - lo <= 1e-12
        assert f_lo > 0.0 >= f_hi or lo == hi and f_lo == 0.0
        assert radius == min(root, fam.cap)
