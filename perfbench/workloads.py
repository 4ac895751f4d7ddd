"""Workloads of the bohrlab benchmark: the argv of every round, how a
round is run, and the checks on what it wrote.

A round is one call of ``bohrlab.cli.main`` per command of the workload.
Round i of workload seed s passes ``--seed s+i`` to every campaign, so the
program sees only the generated argv.  This module imports nothing from
bohrlab, so the set-up probe can time ``import bohrlab`` itself.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import resource
import time

# The table command's family tags.  Each round passes them in a seeded
# order, so the rows come out in another order while the work stays fixed.
FAMILY_TAGS = ("general", "omega-gamma", "half-plane", "convex", "starlike")
TABLE_ROWS = 144
TABLE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    """commands: argv prefixes, one per command of a round.  trials:
    --trials of every campaign command, or None for the table command."""

    name: str
    unit: str
    commands: tuple
    trials: int | None

    @property
    def items_per_round(self) -> int:
        """Work finished by one round: trials, or radius solves (table rows)."""
        if self.trials is None:
            return TABLE_ROWS * len(self.commands)
        return self.trials * len(self.commands)


_D3 = ("--dim", "3", "--degree", "64")
_POLY = ("--k", "1") + _D3

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-d3",
            "trials/s",
            (("verify", "subordination") + _D3,
             ("verify", "von-neumann") + _D3,
             ("verify", "quasi") + _D3),
            200,
        ),
        Workload(
            "poly-d3",
            "trials/s",
            (("verify", "poly-general", "--lambda", "1", "--p", "3") + _POLY,
             ("verify", "poly-convex", "--beta", "1", "--p", "3") + _POLY,
             ("verify", "poly-starlike", "--p", "5") + _POLY),
            2,
        ),
        Workload(
            "wide-d8-n128",
            "trials/s",
            (("verify", "von-neumann", "--dim", "8", "--degree", "128"),
             ("verify", "quasi", "--dim", "8", "--degree", "128")),
            1,
        ),
        Workload(
            "radii-sweep",
            "solves/s",
            (("table",),),
            None,
        ),
    )
}


def round_argvs(workload: Workload, seed: int, index: int, out_dir: str) -> list:
    """The argv of every command of round ``index``."""
    round_seed = seed + index
    argvs = []
    for j, command in enumerate(workload.commands):
        if workload.trials is None:
            families = random.Random(round_seed).sample(FAMILY_TAGS, len(FAMILY_TAGS))
            argvs.append(list(command) + ["--families", ",".join(families),
                                          "--out", os.path.join(out_dir, f"table-{j}.csv")])
        else:
            argvs.append(list(command) + ["--trials", str(workload.trials),
                                          "--seed", str(round_seed),
                                          "--out", os.path.join(out_dir, f"report-{j}.json")])
    return argvs


def _cpu_time() -> float:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_round(cli, argvs, after_each=None) -> tuple:
    """Call ``cli.main`` once per argv with stdout and stderr captured,
    and ``after_each()``, untimed, after each call.

    Every --out file is deleted first, so a command that writes nothing
    fails its check instead of passing on an earlier round's file.
    Returns, per command, the wall time, the CPU time (this process and
    its children) and the outcome: exit code (None when it raised) and
    error text.
    """
    for argv in argvs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(_option(argv, "--out"))
    walls, cpus, outcomes = [], [], []
    for argv in argvs:
        start, cpu_start = time.perf_counter(), _cpu_time()
        sink = io.StringIO()
        error = ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a raising round is a failed round, not a crash
                code, error = None, f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_time() - cpu_start)
        outcomes.append((code, error or sink.getvalue().strip()[-300:]))
        if after_each is not None:
            after_each()
    return walls, cpus, outcomes


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check_campaign(argv, code) -> tuple:
    """Exit code 0, a report written for this round's --seed and
    --trials, exactly --trials records in index order, finite margins.

    Returns (problems, record) where record is the round's
    (suite, seed, pass_count, min_margin) for the drift gate.
    """
    if code != 0:
        return [f"exit code {code}"], None
    path = _option(argv, "--out")
    if not os.path.isfile(path):
        return [f"no report at {path}"], None
    with open(path) as fh:
        report = json.load(fh)
    trials, seed = int(_option(argv, "--trials")), int(_option(argv, "--seed"))
    problems = []
    if (report["config"]["seed"], report["config"]["trials"]) != (seed, trials):
        problems.append(f"report is for seed {report['config']['seed']}, "
                        f"{report['config']['trials']} trials")
    if any(r["seed"] != seed for r in report["records"]):
        problems.append("a record carries another seed")
    indices = [r["index"] for r in report["records"]]
    if indices != list(range(trials)):
        problems.append(f"record indices {indices[:8]} are not 0..{trials - 1}")
    margins = [r["worst_margin"] for r in report["records"]] + [report["min_margin"]]
    if not all(isinstance(m, float) and math.isfinite(m) for m in margins):
        problems.append("non-finite margin")
    record = {"suite": report["suite"], "seed": seed,
              "pass_count": report["pass_count"], "min_margin": report["min_margin"]}
    return problems, record


def _optional_float(text):
    return None if text == "" else float(text)


def check_table(argv, code, radii) -> list:
    """TABLE_ROWS rows, the families in each (k, p) block in the round's
    --families order, every bracket at most TABLE_TOL wide, the radius
    equation positive at its lower end and non-positive at its upper end
    (or zero on a zero-width bracket), and the radius min(root, cap).
    ``radii`` is the bohrlab.radii module."""
    if code != 0:
        return [f"exit code {code}"]
    path = _option(argv, "--out")
    if not os.path.isfile(path):
        return [f"no table at {path}"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != TABLE_ROWS:
        problems.append(f"{len(rows)} rows, expected {TABLE_ROWS}")
    # The table walks the 4 x 4 (k, p) grid and, in each cell, the
    # families in the order given; general and convex give several rows.
    tags = [row["family"] for row in rows]
    runs = [tag for i, tag in enumerate(tags) if i == 0 or tag != tags[i - 1]]
    if runs != _option(argv, "--families").split(",") * 16:
        problems.append("rows do not follow the --families order")
    for row in rows:
        fam = radii.RadiusFamily(
            row["family"], k=float(row["k"]),
            p=math.inf if row["p"] == "inf" else int(row["p"]),
            lam=_optional_float(row["lambda"]), gamma=_optional_float(row["gamma"]),
            beta=_optional_float(row["beta"]))
        radius, cap = float(row["radius"]), float(row["cap"])
        if cap != fam.cap:
            problems.append(f"{row}: cap differs from the family's {fam.cap}")
        if row["root"] == "":
            if radius != cap:
                problems.append(f"{row}: no root, but radius != cap")
            continue
        lo, hi, root = float(row["bracket_lo"]), float(row["bracket_hi"]), float(row["root"])
        if not hi - lo <= TABLE_TOL:
            problems.append(f"{row}: bracket wider than {TABLE_TOL}")
        f_lo, f_hi = radii.radius_poly_eval(fam, lo), radii.radius_poly_eval(fam, hi)
        # A zero-width bracket is an exact hit: the bisection landed on the root.
        if not (f_lo > 0.0 >= f_hi or lo == hi and f_lo == 0.0):
            problems.append(f"{row}: no sign change across the bracket")
        if radius != min(root, cap):
            problems.append(f"{row}: radius != min(root, cap)")
    return problems
