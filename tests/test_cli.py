"""Command line behavior: argument handling, outputs, exit codes."""

import argparse
import csv
import json
import math
import warnings
from fractions import Fraction

import pytest

from bohrlab import harness
from bohrlab.cli import build_parser, main
from bohrlab.opmat import NumericalError
from bohrlab.radii import FAMILY_TAGS
from bohrlab.series import _BohrGrid

HUGE_ORDER = "1" + "0" * 400


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses an option the command does not have
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_output(capsys):
    code, out, _ = run(capsys, "solve", "--family", "omega-gamma", "--gamma", "0",
                       "--k", "1", "--p", "2", "--tol", "1e-12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["radius"] == pytest.approx(1 / 3)
    assert payload["root"] == pytest.approx(0.41421356237, abs=1e-9)
    assert payload["binding"] == "cap"


def test_solve_human_output(capsys):
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--k", "1", "--p", "2")
    assert code == 0
    assert "root" in out and "radius" in out


def test_solve_large_tol_reports_the_root(capsys):
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", "5", "--tol", "0.4",
                       "--json")
    assert code == 0
    lo, hi = json.loads(out)["bracket"]
    assert lo <= 0.3181046747116650 <= hi and hi - lo <= 0.4


def test_solve_proves_the_root_of_the_exact_equation(capsys):
    # k * lambda is not a float; a bracket proven for its rounded value
    # had both ends on the negative side of the exact equation's root
    lam, k = 1.918520934774431, 0.5705964939929364
    code, out, _ = run(capsys, "solve", "--family", "general", "--lambda", repr(lam),
                       "--k", repr(k), "--p", "2", "--tol", "1e-18", "--json")
    assert code == 0
    c, kc = Fraction(lam), Fraction(lam) * Fraction(k)

    def q(r):
        # (1 - r)^2 - c r + (c - kc) r^2 + kc r^3 = (1 - r) q(r)
        r = Fraction(r)
        return 1 - r - c * r - kc * r * r

    lo, hi = json.loads(out)["bracket"]
    assert q(lo) > 0 > q(hi)


@pytest.mark.parametrize("args, margin", [
    (("--beta", "2", "--k", "0.5", "--p", "2"), 1.086e-2),
    (("--beta", "3", "--k", "0.25", "--p", "3"), 7.507e-3),
])
def test_poly_convex_passes_at_its_radius_for_k_below_one(tmp_path, capsys, args, margin):
    # with the base layer's coefficient beta rather than k beta in the
    # radius equation, these campaigns pass; at the old radii they passed
    # 147 and 120 of 200 trials
    out = str(tmp_path / "report.json")
    code, text, _ = run(capsys, "verify", "poly-convex", *args, "--trials", "200", "--dim", "2",
                        "--degree", "64", "--seed", "1", "--out", out)
    assert code == 0 and text.startswith("PASS")
    with open(out) as fh:
        report = json.load(fh)
    assert report["pass_count"] == 200
    assert report["min_margin"] == pytest.approx(margin, rel=1e-3)


def test_solve_huge_order_matches_the_limit(capsys):
    # orders whose exact power r^p would have billions of bits
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", "inf", "--json")
    assert code == 0
    limit = json.loads(out)
    for p in ("1000000", "1000000000"):
        code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", p, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"]["p"] == int(p)
        assert payload["bracket"] == limit["bracket"]
        assert payload["root"] == pytest.approx(0.3176721961719807, abs=1e-12)


def test_solve_limit_order(capsys):
    code, out, _ = run(capsys, "solve", "--family", "half-plane", "--p", "inf", "--json")
    assert code == 0
    assert json.loads(out)["family"]["p"] == "inf"


def test_solve_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--family", "general")
    assert code == 2
    assert "lambda" in err


def test_consecutive_calls_share_no_state(capsys):
    # main reuses one parser; no option value or error may carry over
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", "3", "--json")
    assert code == 0
    default = json.loads(out)
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", "3", "--k", "0.5", "--json")
    assert code == 0 and json.loads(out)["family"]["k"] == 0.5
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", "3", "--json")
    assert code == 0 and json.loads(out)["family"]["k"] == 1.0
    assert json.loads(out) == default
    code, _, _ = run(capsys, "solve", "--family", "general", "--p", "3")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "starlike", "--k", "half"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", "--family", "starlike", "--p", "3", "--json")
    assert code == 0 and json.loads(out) == default


@pytest.mark.parametrize("lam, code", [("0.5", 2), ("1", 0), ("2", 0)])
def test_poly_general_needs_lambda_at_least_one(capsys, lam, code):
    # its instances are origin-fixed contractions, lambda = 1 instances
    got, out, err = run(capsys, "verify", "poly-general", "--trials", "10", "--dim", "2",
                        "--degree", "32", "--k", "1", "--p", "3", "--lambda", lam)
    assert got == code
    if code:
        assert out == "" and "lambda >= 1" in err
    else:
        assert out.startswith("PASS") and "passed=10 " in out


@pytest.mark.parametrize("lam, code", [("5e7", 2), ("1e9", 2), ("49999999.499", 0)])
def test_poly_refuses_a_radius_within_its_grid_gap(capsys, lam, code):
    # the grid ends harness.POLY_GRID_GAP (1e-8) short of the radius:
    # lambda 5e7 gives a radius just below it and 1e9 one of 5e-10,
    # which leave no grid radius and are refused with the family, its
    # radius and the gap named; 49999999.499 leaves a grid radius of 2e-19
    got, out, err = run(capsys, "verify", "poly-general", "--trials", "3", "--dim", "2",
                        "--degree", "16", "--lambda", lam)
    assert got == code
    if code:
        assert out == "" and err.startswith("error:") and "r_max" not in err
        assert all(name in err for name in (f"'lambda': {float(lam)!r}", "'tag': 'general'",
                                            "radius", f"grid gap {harness.POLY_GRID_GAP}"))
    else:
        assert out.startswith("PASS") and "passed=3 " in out


def _choices(command, dest):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


def test_family_and_suite_choices():
    assert tuple(_choices("solve", "family")) == FAMILY_TAGS
    assert _choices("verify", "suite") == ["subordination", "quasi", "von-neumann",
                                           "poly-general", "poly-convex", "poly-starlike"]


@pytest.mark.parametrize("argv", [
    ("solve", "--family", "starlike", "--lambda", "5", "--beta", "3", "--gamma", "0.2"),
    ("solve", "--family", "general", "--lambda", "1", "--gamma", "0.2"),
    ("verify", "poly-general", "--trials", "1", "--beta", "7"),
    ("verify", "poly-convex", "--trials", "1", "--lambda", "5"),
    ("verify", "poly-starlike", "--trials", "1", "--beta", "1"),
    # an option its suite does not read
    ("verify", "quasi", "--trials", "1", "--beta", "2", "--k", "0"),
    ("verify", "subordination", "--trials", "1", "--k", "0.3"),
    ("verify", "von-neumann", "--trials", "1", "--lambda", "3", "--p", "7"),
    ("verify", "poly-starlike", "--trials", "1", "--quasi-beta", "0.5"),
    # quasi's multiplier bound is 1, and its option is gone
    ("verify", "quasi", "--trials", "1", "--m-bound", "2"),
])
def test_other_family_parameter_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert ("unrecognized arguments: --m-bound 2" if "--m-bound" in argv
            else "only applies to the") in err


def test_verify_has_no_gamma_option():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "poly-general", "--trials", "1", "--gamma", "0.2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--family", "starlike", "--p", HUGE_ORDER),
    ("verify", "poly-starlike", "--trials", "1", "--p", HUGE_ORDER),
])
def test_order_too_large_for_a_float_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "too large" in err


def test_poly_order_above_the_cap_is_usage_error(capsys, monkeypatch):
    # each layer of F is allocated, so a huge p must stop before any trial
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_rng", no_trial)
    code, out, err = run(capsys, "verify", "poly-starlike", "--trials", "1", "--p", "1000000000")
    assert code == 2 and out == ""
    assert "p <= 64" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "poly-starlike", "--trials", "1", "--dim", "1",
                       "--degree", "8", "--p", "64")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("argv", [["--quasi-beta", "0.1", "--degree", "256"]])
def test_quasi_far_outside_the_float_range_passes(capsys, argv):
    # the dilation 0.1^n underflows to subnormals and zeros at degree 256
    code, out, _ = run(capsys, "verify", "quasi", "--trials", "3", "--dim", "3", *argv)
    assert code == 0 and out.startswith("PASS")


def test_quasi_at_a_small_beta_and_the_top_degree_passes(capsys):
    # in the dilated variable w = z / beta no coefficient grows like
    # beta^-n, so beta 0.05 at degree 256 runs, without numpy's warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "quasi", "--quasi-beta", "0.05",
                             "--degree", "256", "--trials", "3")
    assert code == 0 and out.startswith("PASS") and not err and not caught


def test_numerical_failure_is_exit_2_not_a_violation(capsys, monkeypatch):
    def fail(stack):
        raise NumericalError("eigensolver failed on Gram matrices")

    monkeypatch.setattr(harness, "op_norms", fail)
    code, _, err = run(capsys, "verify", "von-neumann", "--trials", "1", "--dim", "2")
    assert code == 2
    assert err.startswith("error: eigensolver failed")


def test_low_degree_failure_is_the_tail_allowance(tmp_path, capsys):
    # exit 1 means a trial was not certified, not that the inequality
    # failed: at degree 1, 53 of 200 von-neumann trials fail only by the
    # certified tail allowance, and each lower end satisfies the bound
    out = str(tmp_path / "report.json")
    code, _, _ = run(capsys, "verify", "von-neumann", "--seed", "1", "--degree", "1",
                     "--out", out)
    assert code == 1
    with open(out) as fh:
        failed = [r for r in json.load(fh)["records"] if not r["passed"]]
    assert len(failed) == 53
    assert all(r["worst_margin"] + r["width"] >= 0 for r in failed)


def test_solve_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "banana"])
    assert exc.value.code == 2


def test_verify_subordination(tmp_path, capsys):
    # at degree 16 the starlike equality trials fail by their class
    # allowance: a rotation phi makes Bohr(f) = Bohr(g), so the margin,
    # g's lower end against f's upper, is minus the allowance of f's class
    # (1, 1) past degree 16 at r = 1/3, tail(17, 1, 1) = 2.15e-7, above
    # the tolerance 1e-8; every trial is certified, and the lower ends pass
    out = str(tmp_path / "report.json")
    code, text, _ = run(capsys, "verify", "subordination", "--trials", "5", "--dim", "2",
                        "--degree", "16", "--seed", "3", "--tol", "1e-8", "--out", out)
    assert code == 1
    assert text.startswith("FAIL")
    with open(out) as fh:
        payload = json.load(fh)
    assert (payload["pass_count"], payload["certified_count"]) == (3, 5)
    failed = [r for r in payload["records"] if not r["passed"]]
    assert [r["index"] for r in failed] == [0, 2]
    allowance = _BohrGrid([1 / 3]).tail(17, 1.0, 1)[0]
    for r in failed:
        assert r["params"]["target"] == "starlike"
        assert r["worst_margin"] == pytest.approx(-allowance, rel=1e-6)
        assert r["worst_margin"] + r["width"] >= 0


def test_verify_subordination_passes_at_the_default_degree(tmp_path, capsys):
    # the same trials at the default degree 64, which expands to 42,
    # where every allowance is below 2^-60
    out = str(tmp_path / "report.json")
    code, text, _ = run(capsys, "verify", "subordination", "--trials", "5", "--dim", "2",
                        "--seed", "3", "--tol", "1e-8", "--out", out)
    assert code == 0
    assert text.startswith("PASS")
    with open(out) as fh:
        payload = json.load(fh)
    assert (payload["pass_count"], payload["certified_count"]) == (5, 5)
def test_verify_quasi_and_poly_suites(tmp_path, capsys):
    code, text, _ = run(capsys, "verify", "quasi", "--trials", "4", "--dim", "2",
                        "--degree", "16", "--quasi-beta", "0.5")
    assert code == 0 and text.startswith("PASS")
    code, text, _ = run(capsys, "verify", "poly-general", "--trials", "4", "--dim", "2",
                        "--degree", "16", "--k", "0.5", "--p", "3", "--lambda", "1")
    assert code == 0 and text.startswith("PASS")
    code, text, _ = run(capsys, "verify", "poly-convex", "--trials", "4", "--dim", "2",
                        "--degree", "16", "--beta", "0.5")
    assert code == 0 and text.startswith("PASS")
    code, text, _ = run(capsys, "verify", "poly-starlike", "--trials", "4", "--dim", "2",
                        "--degree", "16")
    assert code == 0 and text.startswith("PASS")


def test_verify_csv_report(tmp_path, capsys):
    # the --out path picks the format, as for table: CSV for a .csv path
    out = str(tmp_path / "report.csv")
    code, _, _ = run(capsys, "verify", "von-neumann", "--trials", "3", "--dim", "1",
                     "--degree", "16", "--out", out)
    assert code == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3
    # and JSON for any other
    out = str(tmp_path / "r.txt")
    code, _, _ = run(capsys, "verify", "von-neumann", "--trials", "3", "--dim", "1",
                     "--degree", "16", "--out", out)
    assert code == 0
    with open(out) as fh:
        assert len(json.load(fh)["records"]) == 3


def test_verify_out_that_is_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # refused before any trial: a failing campaign would otherwise write
    # its failure files beside the directory and then fail to write the
    # report into it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reports").mkdir()
    code, out, err = run(capsys, "verify", "quasi", "--trials", "3", "--tol", "-10",
                         "--out", "reports")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "directory" in err
    assert list(tmp_path.rglob("*")) == [tmp_path / "reports"]


def test_verify_csv_path_without_format_writes_csv(tmp_path, capsys):
    # verify has no format option: the extension decides, as for table
    out = str(tmp_path / "r.csv")
    code, _, _ = run(capsys, "verify", "von-neumann", "--trials", "3", "--dim", "1",
                     "--degree", "16", "--out", out)
    assert code == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["index", "seed", "params", "worst_margin", "passed",
                                     "certified", "width"]
        assert len(list(reader)) == 3


def test_verify_failure_exit_code(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, text, _ = run(capsys, "verify", "subordination", "--trials", "3", "--dim", "2",
                        "--degree", "16", "--tol", "-10", "--out", out)
    assert code == 1
    assert text.startswith("FAIL")
    assert (tmp_path / "subordination-failure-00000.json").exists()


def test_poly_suite_failure_exit_code(tmp_path, capsys):
    # the tolerance is the pass threshold, not an offset of the grid, so
    # an impossible one runs the campaign and fails every trial
    out = str(tmp_path / "report.json")
    code, text, _ = run(capsys, "verify", "poly-convex", "--trials", "3", "--dim", "2",
                        "--degree", "16", "--tol", "-10", "--out", out)
    assert code == 1
    assert text.startswith("FAIL")
    with open(out) as fh:
        assert json.load(fh)["pass_count"] == 0
    assert len(list(tmp_path.glob("poly-convex-failure-*.json"))) == 3


@pytest.fixture
def failure_file(tmp_path, capsys):
    """A quasi failure file of a campaign at an impossible tolerance."""
    code, _, _ = run(capsys, "verify", "quasi", "--trials", "2", "--dim", "2", "--degree", "16",
                     "--tol", "-10", "--out", str(tmp_path / "r.json"))
    assert code == 1
    return tmp_path / "quasi-failure-00001.json"


def test_replay_equal_to_the_record_is_exit_0(failure_file, capsys):
    code, out, err = run(capsys, "replay", str(failure_file))
    assert code == 0 and not err
    with open(failure_file) as fh:
        record = json.load(fh)["record"]
    header, recorded, replayed = out.splitlines()
    assert header.split() == ["worst_margin", "certified", "width"]
    expected = [repr(record[key]) for key in ("worst_margin", "certified", "width")]
    assert recorded.split() == ["record", *expected]
    assert replayed.split() == ["replay", *expected]


def test_replay_that_differs_from_the_record_is_exit_1(failure_file, capsys):
    with open(failure_file) as fh:
        dump = json.load(fh)
    margin = dump["record"]["worst_margin"]
    dump["record"]["worst_margin"] = math.nextafter(margin, math.inf)
    with open(failure_file, "w") as fh:
        json.dump(dump, fh)
    code, out, _ = run(capsys, "replay", str(failure_file))
    assert code == 1
    assert out.splitlines()[2].split()[1] == repr(margin)
    # a one-ulp drift reads as one: replay - record, and certified kept
    nudged = dump["record"]["worst_margin"]
    assert out.splitlines()[3] == (f"replay - record: worst_margin {margin - nudged:+.3e} "
                                   f"width +0.000e+00, certified unchanged")
    assert 0.0 < nudged - margin <= math.ulp(margin)


def test_replay_says_when_certified_flipped(failure_file, capsys):
    with open(failure_file) as fh:
        dump = json.load(fh)
    dump["record"]["certified"] = not dump["record"]["certified"]
    with open(failure_file, "w") as fh:
        json.dump(dump, fh)
    code, out, _ = run(capsys, "replay", str(failure_file))
    assert code == 1
    assert out.splitlines()[3] == ("replay - record: worst_margin +0.000e+00 width +0.000e+00, "
                                   "certified flipped from False to True")


def test_von_neumann_failure_file_replays_at_its_expansion_degree(tmp_path, capsys):
    # at --degree 64 von-neumann expands to 38 and its files say so; a
    # file without the entry, as the campaigns that expanded to --degree
    # wrote, is refused, while at --degree 38 and below there is no entry
    # to miss, so such a file replays
    for degree, expanded in (("64", 38), ("38", None)):
        (tmp_path / degree).mkdir()
        code, _, _ = run(capsys, "verify", "von-neumann", "--trials", "2", "--dim", "2",
                         "--degree", degree, "--tol", "-10",
                         "--out", str(tmp_path / degree / "r.json"))
        assert code == 1
        path = tmp_path / degree / "von-neumann-failure-00001.json"
        with open(path) as fh:
            dump = json.load(fh)
        assert dump["config"].get("expansion_degree") == expanded
        code, out, err = run(capsys, "replay", str(path))
        assert code == 0 and not err
        if expanded is None:
            continue
        del dump["config"]["expansion_degree"]
        with open(path, "w") as fh:
            json.dump(dump, fh)
        code, out, err = run(capsys, "replay", str(path))
        assert code == 2 and out == ""
        assert ("config entries {'r_max': 0.3333333333333333, 'expansion_degree': None} are not "
                "the completed {} and prepare's {'r_max': 0.3333333333333333, "
                "'expansion_degree': 38}") in err


@pytest.mark.parametrize("suite, expanded, entries", [
    ("subordination", 42, "'r_max': 0.3333333333333333"),
    ("quasi", 45, "'beta': 0.9, 'r_max': 0.3"),
])
def test_subordination_and_quasi_failure_files_replay_at_their_expansion_degree(
        tmp_path, capsys, suite, expanded, entries):
    # at --degree 64 subordination expands to 42 and quasi to 45, and
    # their files say so; a file without the entry, as the campaigns that
    # expanded these suites to --degree wrote, is refused, while at
    # --degree N and below there is no entry to miss, so such a file
    # replays
    for degree, echoed in (("64", expanded), (str(expanded), None)):
        (tmp_path / degree).mkdir()
        code, _, _ = run(capsys, "verify", suite, "--trials", "2", "--dim", "2",
                         "--degree", degree, "--tol", "-10",
                         "--out", str(tmp_path / degree / "r.json"))
        assert code == 1
        path = tmp_path / degree / f"{suite}-failure-00001.json"
        with open(path) as fh:
            dump = json.load(fh)
        assert dump["config"].get("expansion_degree") == echoed
        code, out, err = run(capsys, "replay", str(path))
        assert code == 0 and not err
        if echoed is None:
            continue
        del dump["config"]["expansion_degree"]
        with open(path, "w") as fh:
            json.dump(dump, fh)
        code, out, err = run(capsys, "replay", str(path))
        assert code == 2 and out == ""
        assert (f"config entries {{{entries}, 'expansion_degree': None}} are not the completed "
                f"{dump['options']!r} and prepare's {{{entries}, 'expansion_degree': "
                f"{expanded}}}") in err


@pytest.mark.parametrize("argv, expanded", [
    (("poly-general", "--lambda", "1", "--p", "3"), 42),
    (("poly-convex", "--beta", "1", "--p", "3"), 42),
    (("poly-starlike", "--p", "5"), 44),
], ids=("poly-general", "poly-convex", "poly-starlike"))
def test_poly_failure_files_replay_at_their_expansion_degree(tmp_path, capsys, argv, expanded):
    # the benchmark's poly configs (k 1) expand to their N at --degree 64
    # and 128, and every failure file at an impossible tolerance says so
    # and replays, at dims 1, 2, 3, 5 and 8; a file without the entry, as
    # the campaigns that expanded the poly suites to --degree wrote, is
    # refused
    suite = argv[0]
    for dim in ("1", "2", "3", "5", "8"):
        for degree in ("64", "128"):
            out = tmp_path / dim / degree
            out.mkdir(parents=True)
            code, _, _ = run(capsys, "verify", *argv, "--k", "1", "--trials", "2", "--dim", dim,
                             "--degree", degree, "--tol", "-10", "--out", str(out / "r.json"))
            assert code == 1
            paths = sorted(out.glob(f"{suite}-failure-*.json"))
            assert len(paths) == 2
            for path in paths:
                with open(path) as fh:
                    assert json.load(fh)["config"]["expansion_degree"] == expanded
                code, _, err = run(capsys, "replay", str(path))
                assert code == 0 and not err
    with open(path) as fh:
        dump = json.load(fh)
    del dump["config"]["expansion_degree"]
    with open(path, "w") as fh:
        json.dump(dump, fh)
    code, out, err = run(capsys, "replay", str(path))
    assert code == 2 and out == ""
    assert "'expansion_degree': None} are not the completed" in err
    assert f"'expansion_degree': {expanded}}}" in err


@pytest.mark.parametrize("edit, message", [
    (lambda dump: {**{key: dump[key] for key in ("suite", "config", "record")}, "instance": {}},
     "KeyError('options')"),
    (lambda dump: {**dump, "config": {k: v for k, v in dump["config"].items() if k != "seed"}},
     "KeyError('seed')"),
    (lambda dump: {**dump, "record": {k: v for k, v in dump["record"].items() if k != "index"}},
     "KeyError('index')"),
    (lambda dump: {**dump, "record": {**dump["record"], "index": 1.5}}, "TypeError"),
    (lambda dump: "not json", "Expecting value"),
    (lambda dump: {**dump, "suite": "von-neumann"},
     "suite 'von-neumann' and record seed 42 are not the config's 'quasi' and 42"),
    (lambda dump: {**dump, "record": {**dump["record"], "seed": 999}},
     "suite 'quasi' and record seed 999 are not the config's 'quasi' and 42"),
    (lambda dump: {**dump, "record": {**dump["record"],
                                      "params": {"target": "starlike", "u": [0.1, 0.2]}}},
     "record params {'target': 'starlike', 'u': [0.1, 0.2]} and passed False are not the "
     "re-drawn trial's"),
    (lambda dump: {**dump, "record": {**dump["record"], "passed": True}},
     "and passed True are not the re-drawn trial's"),
    (lambda dump: {**dump, "record": {**dump["record"], "worst_margin": "-1e-3"}},
     "record worst_margin, certified and width ['-1e-3', True, 0.0] are not a float, a bool "
     "and a float"),
    (lambda dump: {**dump, "options": {**dump["options"], "k": 0.3, "bogus": 1}},
     "ValueError('k only applies to the poly-general or poly-convex or poly-starlike suite, "
     "not to quasi')"),
    # a quasi file written while quasi read a multiplier bound M
    (lambda dump: {**dump, "options": {"m_bound": 1.5, **dump["options"]},
                   "config": {"m_bound": 1.5, **dump["config"]}},
     "ValueError('no suite reads m_bound')"),
    # ... or with only its config echo edited, and a key no campaign writes
    (lambda dump: {**dump, "config": {"m_bound": 1.5, "bogus": 7, **dump["config"]}},
     "config keys ['bogus', 'm_bound'] are neither CampaignConfig's fields nor prepare's "
     "entries ['beta', 'r_max']"),
    (lambda dump: {**dump, "config": {**dump["config"], "r_max": 0.9}},
     "config entries {'beta': 0.9, 'r_max': 0.9} are not the completed {'quasi_beta': 0.9} "
     "and prepare's {'beta': 0.9, 'r_max': 0.3}"),
])
def test_malformed_failure_file_is_exit_2(failure_file, capsys, edit, message):
    # an old-format file (its coefficients as "instance", no options), a
    # missing key, an entry of the wrong type, text that is not JSON, a
    # suite or record seed that differs from the config's, record params
    # that differ from the re-drawn trial's, a record that passed, or
    # options or suite config entries other than the campaign's is a
    # usage error, not a differing replay
    with open(failure_file) as fh:
        dump = json.load(fh)
    edited = edit(dump)
    with open(failure_file, "w") as fh:
        fh.write(edited if isinstance(edited, str) else json.dumps(edited))
    code, out, err = run(capsys, "replay", str(failure_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


def test_verify_missing_out_directory_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_rng", no_trial)
    code, _, err = run(capsys, "verify", "von-neumann",
                       "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert "directory" in err
    assert not list(tmp_path.iterdir())


def test_verify_bad_config_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "subordination", "--dim", "40")
    assert code == 2
    assert "dim" in err


def test_scan_sharpness(capsys):
    code, out, _ = run(capsys, "scan", "sharpness", "--a", "0.9",
                       "--rmin", "0.2", "--rmax", "0.45", "--steps", "60")
    assert code == 0
    assert "refined threshold" in out
    assert "0.357142857" in out


def test_scan_sharpness_steps_above_the_cap_is_usage_error(capsys, monkeypatch):
    # the grid's Vandermonde holds steps x (degree + 1) floats, so a huge
    # step count must stop before anything is built
    def no_witness(*args):
        raise AssertionError("the witness was built")

    monkeypatch.setattr(harness, "mobius_extremal", no_witness)
    code, out, err = run(capsys, "scan", "sharpness", "--a", "0.9", "--steps", "10000000000")
    assert code == 2 and out == ""
    assert "steps" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "scan", "sharpness", "--a", "0.9", "--steps", str(10**5))
    assert code == 0
    assert "refined threshold" in out


def test_scan_sharpness_window_above_threshold(capsys):
    # the window starts past the crossing 1/(1 + 2a), which is still found
    code, out, _ = run(capsys, "scan", "sharpness", "--a", "0.99", "--rmin", "0.4",
                       "--rmax", "0.45")
    assert code == 0
    threshold = float(out.split("refined threshold: r = ")[1].split()[0])
    assert threshold == pytest.approx(1 / 2.98, abs=1e-6)


def test_scan_sharpness_no_crossing(capsys):
    code, out, _ = run(capsys, "scan", "sharpness", "--a", "0.5",
                       "--rmin", "0.0", "--rmax", "0.4", "--steps", "40")
    assert code == 0
    assert "no grid point exceeded 1" in out


def test_table_to_file_and_stdout(tmp_path, capsys):
    out = str(tmp_path / "radii.csv")
    code, text, _ = run(capsys, "table", "--families", "starlike,half-plane", "--out", out)
    assert code == 0
    assert "32 rows" in text
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 32
    code, text, _ = run(capsys, "table", "--families", "half-plane")
    assert code == 0
    assert json.loads(text)[0]["family"] == "half-plane"


def test_table_unknown_family(capsys):
    code, _, err = run(capsys, "table", "--families", "banana")
    assert code == 2
    assert "banana" in err


@pytest.mark.parametrize("families", [",", "", "convex,convex"])
def test_table_empty_or_repeated_families_fail(tmp_path, capsys, families):
    out = tmp_path / "radii.csv"
    code, _, err = run(capsys, "table", "--families", families, "--out", str(out))
    assert code == 2
    assert "none twice" in err
    assert not out.exists()
