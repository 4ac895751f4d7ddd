"""Command line front end.

Subcommands:

  solve   solve one radius equation and print root/cap/radius
  verify  run a randomized verification campaign
  scan    tabulate the sharpness witness's Bohr sum
  table   solve the radius equation over a parameter sweep
  replay  re-draw a failure file's trial and compare it with its record

Exit code 0 means every assertion the invocation made passed; 1 means a
campaign or scan could not certify one (which is not a violation found:
at a low degree the tail allowance alone fails trials whose lower ends
pass) or a replay differs from its record; 2 means the invocation, a
failure file included, was invalid or its numerics failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .harness import (SUITES, CampaignConfig, emit_radius_table, replay, run_campaign,
                      run_sharpness_scan)
from .opmat import NumericalError
from .radii import FAMILIES, FAMILY_TAGS, RadiusFamily, root_result_to_json, solve_radius


def _parse_p(text: str):
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return int(text)


def _family(tag: str, args) -> RadiusFamily:
    """The family from the given --k, --p and family parameter options.
    RadiusFamily checks them: it needs the tag's own parameter, rejects
    another family's and gives an omitted --k or --p its default."""
    names = ["k", "p"] + [s.attr for s in FAMILIES.values() if s.attr]
    return RadiusFamily(tag, **{name: getattr(args, name) for name in names
                                if getattr(args, name) is not None})


def _add_family_options(parser):
    # no defaults: solve takes RadiusFamily's, verify its suite's
    parser.add_argument("--k", type=float, default=None, help="derivative-ratio bound in [0, 1]")
    parser.add_argument("--p", type=_parse_p, default=None,
                        help="polyanalytic order (integer >= 2, or 'inf')")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="coefficient-growth constant (general family)")
    parser.add_argument("--beta", type=float, default=None,
                        help="derivative norm of the convex target (convex family)")


def _cmd_solve(args) -> int:
    fam = _family(args.family, args)
    res = solve_radius(fam, args.tol, statement_form=args.statement_form)
    if args.json:
        print(json.dumps(root_result_to_json(res), sort_keys=True))
        return 0
    desc = ", ".join(f"{k}={v}" for k, v in fam.describe().items())
    if res.root is None:
        print(f"{desc}: no root in (0, 1); radius = cap = {fam.cap:.15g}")
    else:
        lo, hi = res.bracket
        print(
            f"{desc}: root = {res.root:.15g} (bracket [{lo:.15g}, {hi:.15g}]), "
            f"cap = {fam.cap:.15g}, radius = {res.radius:.15g} ({res.binding} binds)"
        )
    return 0


def _cmd_verify(args) -> int:
    config = CampaignConfig(
        suite=args.suite,
        trials=args.trials,
        seed=args.seed,
        dim=args.dim,
        degree=args.degree,
        tolerance=args.tol,
        out=args.out,
    )
    # every suite option given, so run_campaign rejects one the suite does not read
    options = {name: getattr(args, name) for suite in SUITES.values() for name in suite.options
               if getattr(args, name) is not None}
    report = run_campaign(config, **options)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} suite={report.suite} trials={report.trials} "
        f"passed={report.pass_count} min_margin={report.min_margin:.3e} "
        f"wall={report.wall_time_s:.2f}s"
    )
    if args.out:
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def _cmd_scan(args) -> int:
    scan = run_sharpness_scan(args.a, args.rmin, args.rmax, args.steps)
    stride = max(1, len(scan.r_values) // 16)
    for r, v in list(zip(scan.r_values, scan.bohr_values))[::stride]:
        marker = " <-- exceeds 1" if v > 1.0 else ""
        print(f"  r = {r:.6f}  bohr = {v:.9f}{marker}")
    print(f"predicted threshold 1/(1+2a) = {scan.predicted_threshold:.12f}")
    if scan.first_exceed is None:
        print("no grid point exceeded 1")
        return 0
    print(f"first grid point above 1: r = {scan.first_exceed:.6f}")
    print(f"refined threshold: r = {scan.threshold:.12f}")
    if abs(scan.threshold - scan.predicted_threshold) > 1e-6:
        print("threshold disagrees with 1/(1+2a)", file=sys.stderr)
        return 1
    return 0


def _cmd_table(args) -> int:
    families = None
    if args.families is not None:
        families = tuple(t.strip() for t in args.families.split(",") if t.strip())
    rows = emit_radius_table(families, out=args.out, tol=args.tol)
    if args.out:
        print(f"{len(rows)} rows written to {args.out}")
    else:
        print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def _cmd_replay(args) -> int:
    with open(args.file) as fh:
        dump = json.load(fh)
    replayed = " ".join(map(repr, replay(dump)))
    # repr round-trips a float, so equal reprs are equal bits
    recorded = " ".join(repr(dump["record"][k]) for k in ("worst_margin", "certified", "width"))
    print(f"       worst_margin certified width\nrecord {recorded}\nreplay {replayed}")
    return 0 if recorded == replayed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bohrlab",
                                     description="verified Bohr-sum numerics campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one radius equation")
    solve.add_argument("--family", required=True, choices=FAMILY_TAGS)
    _add_family_options(solve)
    solve.add_argument("--gamma", type=float, default=None,
                       help="domain parameter in [0, 1) (omega-gamma family)")
    solve.add_argument("--tol", type=float, default=1e-12, help="bracket width target")
    solve.add_argument("--statement-form", action="store_true",
                       help="use the historically displayed general equation")
    solve.add_argument("--json", action="store_true", help="print the result as JSON")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--dim", type=int, default=3)
    verify.add_argument("--degree", type=int, default=64)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--out", default=None,
                        help="write the report to this path (CSV for a .csv path, else JSON)")
    verify.add_argument("--m-bound", dest="m_bound", type=float, default=None,
                        help="multiplier sup bound (quasi suite)")
    verify.add_argument("--quasi-beta", dest="quasi_beta", type=float, default=None,
                        help="disk radius the multiplier is bounded on (quasi suite)")
    _add_family_options(verify)
    verify.set_defaults(func=_cmd_verify)

    scan = sub.add_parser("scan", help="scan an extremal witness")
    scan.add_argument("what", choices=("sharpness",))
    scan.add_argument("--a", type=float, required=True, help="witness parameter in (0, 1)")
    scan.add_argument("--rmin", type=float, default=0.0)
    scan.add_argument("--rmax", type=float, default=0.5)
    scan.add_argument("--steps", type=int, default=200)
    scan.set_defaults(func=_cmd_scan)

    table = sub.add_parser("table", help="radius table over a parameter sweep")
    table.add_argument("--families", default=None,
                       help="comma-separated family tags (default: all)")
    table.add_argument("--out", default=None, help="write here (CSV for a .csv path, else JSON)")
    table.add_argument("--tol", type=float, default=1e-12)
    table.set_defaults(func=_cmd_table)

    replay_ = sub.add_parser("replay", help="re-draw a failure file's trial")
    replay_.add_argument("file", help="a <suite>-failure-<index>.json file")
    replay_.set_defaults(func=_cmd_replay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call.  Parsing reads it
    and never changes it, so consecutive calls share no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
