"""Campaign engine: configs, determinism, reports, failure replay,
sharpness scans, radius tables."""

import csv
import glob
import json
import math
import os
import shutil
import warnings

import numpy as np
import pytest

from bohrlab import harness
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
from bohrlab.opmat import NumericalError
from bohrlab.series import MatrixSeries, _BohrGrid, _layers, majorant
from bohrlab.zoo import build_polyanalytic

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
    # norms of 1e308 sum past the float range at r = 1/2, and a bound's
    # sum of 2e10 times m_bound 1e300 does too
    big = np.zeros((8, 2, 2), dtype=np.complex128)
    big[:, 0, 0] = 1e308
    small = MatrixSeries(np.full((4, 2, 2), 1e10 + 0j))
    for pair, m_bound, radii in (((MatrixSeries(big), None), 1.0, [0.5]),
                                 ((small, small), 1e300, [0.0, 1 / 3])):
        with pytest.raises(NumericalError, match="not finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            harness._margin([pair], m_bound, _BohrGrid(radii))


def test_campaign_records_are_pinned(tmp_path):
    # every suite's records at the k = 1 defaults (dim 2, degree 32, 10
    # trials, seeds 1 and 2), margins as float hex: a reordered random
    # draw or a changed margin shows up trial by trial.  Margins get
    # 1e-12, since BLAS builds may round matrix products differently.
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


def _coefficient_bytes(obj):
    """The coefficients of a series, a layered function's layers, or
    nothing for None, as bytes."""
    return b"".join(f.coeffs.tobytes() for f in (() if obj is None else _layers(obj)))


@pytest.mark.parametrize("suite", list(SUITES))
def test_block_boundaries_do_not_leak_between_trials(tmp_path, monkeypatch, suite):
    # the trials run in blocks of b, drawn together and expanded in one
    # pass; a run of k trials must be the first k trials of a longer run,
    # records and compared functions bit for bit, wherever k falls
    # against the block boundaries
    dim, degree = 3, 64
    b = max(1, harness._BLOCK_ENTRIES // (dim**2 * (degree + 1)))
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
def test_block_margins_are_the_per_series_formulas_bit_for_bit(tmp_path, monkeypatch, suite):
    # one block of trials, its margins formed in one _margin call, must
    # equal each pair's margin from majorant(...).bohr on the 20-point
    # grid, for a series and a layered function alike; the replay's
    # one-pair block must equal it too.  Against the bound 1 the call
    # takes the grid's last radius alone
    dim, degree = 3, 64
    b = max(1, harness._BLOCK_ENTRIES // (dim**2 * (degree + 1)))
    calls, margin = [], harness._margin

    def recording_margin(pairs, m_bound, grid):
        calls.append((pairs, m_bound, grid.r, margin(pairs, m_bound, grid)))
        return calls[-1][3]

    monkeypatch.setattr(harness, "_margin", recording_margin)
    config = small_config(tmp_path, suite, trials=b, dim=dim, degree=degree, seed=3)
    report = run_campaign(config, **({"m_bound": 2.0} if suite == "quasi" else {}))
    assert len(calls) == 1
    pairs, m_bound, radii, margins = calls[0]
    assert len(pairs) == b and m_bound == (2.0 if suite == "quasi" else 1.0)
    assert margins == [(r.worst_margin, r.certified, r.width) for r in report.records]
    if suite in ("subordination", "quasi"):
        assert {r.params["target"] for r in report.records} == {"schur", "convex", "starlike"}
    r_max = (report.config["radius"] - harness.POLY_GRID_GAP if suite.startswith("poly-")
             else report.config["r_max"])
    grid = default_grid(r_max)
    assert tuple(radii) == (grid[-1:] if SUITES[suite].bound is None else grid)
    for (value, bound), (worst, certified, width) in zip(pairs, margins):
        assert (bound is None) == (suite == "von-neumann" or suite.startswith("poly-"))
        upper = majorant(value).bohr(grid)[1]
        lower = 1.0 if bound is None else majorant(bound).bohr(grid)[0]
        assert worst == float(np.min(m_bound * lower - upper))
        assert margin([(value, bound)], m_bound, harness._BohrGrid(grid)) == [
            (worst, certified, width)]


def test_low_degree_equality_case_fails_by_the_tail_allowance(tmp_path):
    # trial 1 composes a Schur target g with a rotation phi(z) = c z, so
    # f and g have the same coefficient norms and Bohr(f) = Bohr(g).  The
    # margin compares f's upper end, which adds the tail allowance
    # r^17 / (1 - r) of f's certificate 1, with g's lower end, the
    # truncated sum; at degree 16 and r = 1/3 the allowance, 1.16e-8,
    # exceeds the tolerance 1e-8, and the trial fails by exactly it
    cfg = CampaignConfig(suite="subordination", trials=4, seed=5, dim=2, degree=16,
                         out=str(tmp_path / "report.json"))
    report = run_campaign(cfg)
    record = report.records[1]
    assert record.params == {"target": "schur"} and not record.passed
    assert record.worst_margin == pytest.approx(-(1 / 3) ** 17 / (1 - 1 / 3), rel=1e-6)
    _, draw = SUITES["subordination"].prepare(cfg)
    [(_, instance)] = harness._trials(draw, cfg, [1])
    phi = instance["phi"].coeffs[:, 0, 0]
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
    for m_bound, beta in ((1.0, 1.0), (1.5, 0.9), (2.0, 0.5)):
        cfg = small_config(tmp_path, "quasi")
        report = run_campaign(cfg, m_bound=m_bound, quasi_beta=beta)
        assert report.passed, (m_bound, beta)
        assert report.config["m_bound"] == m_bound
        assert report.config["r_max"] == pytest.approx(beta / 3)
    with pytest.raises(ValueError):
        run_campaign(small_config(tmp_path, "quasi"), quasi_beta=1.5)


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
                      ("record", "width")):
        with pytest.raises(ValueError, match=f"KeyError.'{key}'"):
            replay({**dump, part: {k: v for k, v in dump[part].items() if k != key}})
    with pytest.raises(ValueError, match="malformed failure file: TypeError"):
        replay([])
    for part, key, value in (("config", "trials", None), ("config", "seed", "7"),
                             ("record", "index", 0.5)):
        with pytest.raises(ValueError, match="malformed failure file: TypeError"):
            replay({**dump, part: {**dump[part], key: value}})


# instance names each suite's trials build
INSTANCE_KEYS = {
    "subordination": {"g", "phi", "f"},
    "quasi": {"g", "phi", "h", "f"},
    "von-neumann": {"f", "phi", "composition"},
    "poly-general": {"fn"},
    "poly-convex": {"fn"},
    "poly-starlike": {"fn"},
}


@pytest.mark.parametrize("suite, options", [
    *(pytest.param(suite, {}, id=suite) for suite in SUITES),
    pytest.param("quasi", dict(m_bound=2.0, quasi_beta=0.5), id="quasi-m_bound-2-beta-0.5"),
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
        _, draw = SUITES[suite].prepare(cfg, **{**SUITES[suite].options, **options})
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
            [(params, instance)] = harness._trials(draw, cfg, [record.index])
            assert params == record.params and set(instance) == INSTANCE_KEYS[suite]
            assert replay(dump) == (record.worst_margin, record.certified, record.width)


@pytest.mark.parametrize("suite", list(SUITES))
def test_records_say_which_sides_are_certified(tmp_path, suite):
    # an upper end is proven only when every series summed carries a tail
    # bound: von-neumann's composition does, subordination's f does for
    # Schur and convex targets, and quasi's product and the poly suites'
    # higher layers never do.  At degree 8 the tail allowance
    # r^9 / (1 - r) is well above rounding: it is von-neumann's enclosure
    # width at r_max, where its margin is worst as the Bohr sum grows in
    # r, and a series without a tail bound adds no width, so
    # poly-starlike's, none of whose layers has one, is 0
    cfg = small_config(tmp_path, suite, trials=12, degree=8, seed=3)
    report = run_campaign(cfg)
    expected = [suite == "von-neumann"
                or suite == "subordination" and r.params["target"] != "starlike"
                for r in report.records]
    assert [r.certified for r in report.records] == expected
    assert 0 < report.certified_count == sum(expected) < 12 or suite != "subordination"
    with open(cfg.out) as fh:
        payload = json.load(fh)
    assert payload["certified_count"] == report.certified_count
    assert [(r["certified"], r["width"]) for r in payload["records"]] == [
        (r.certified, r.width) for r in report.records]
    for r in report.records:
        assert r.width >= 0.0
        if suite == "von-neumann":
            assert r.width == pytest.approx((1 / 3) ** 9 / (2 / 3), rel=1e-9)
        elif suite == "poly-starlike":
            assert r.width == 0.0


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
