"""Randomized verification campaigns over the function families.

A campaign draws seeded random instances of an inequality's hypothesis,
encloses both sides' Bohr sums, and records the worst margin (bound
minus value) over a radius grid.  A trial passes when its margin is
>= -tolerance.  The ends compared face the "wrong" way: the upper end
for the quantity being bounded, the lower end for the bound.  A lower
end, a partial sum of nonnegative terms, is always a lower bound, but
an upper end is an upper bound only when every series in it carries a
tail certificate, and only then is a pass evidence that the inequality
holds for that instance rather than an artifact of truncation.  Each
record says whether both ends were proven bounds (certified) and how
wide the margin's enclosure is at its worst radius.  Today they are
for every von-neumann trial and for subordination trials with Schur or
convex targets, but not for starlike targets, for any quasi trial (the
product carries no tail certificate) or for any poly-* trial (the
higher layers carry none).  Floating-point rounding is enclosed on
neither side.  A failed trial is one the campaign could not certify,
not a violation found: at a low degree the tail allowance alone fails
trials whose lower ends pass (worst_margin + width >= 0).

SUITES is the one definition of each suite (Suite): run_campaign runs
one, and replay re-draws a failure file's trial, from it alone.

Determinism: trial i of a campaign with seed s uses the generator
default_rng([s, i]), so reports are reproducible.  A trial first makes
its random draws and then builds its functions from their series, and
the campaign runs in blocks of trials: every trial of a block is drawn,
in index order, before one zoo.expand call expands all their random
functions at once, and every trial is finished before one _margin call
forms all the block's margins.  The draws, and so the reports, do not
depend on the block size.  A failed trial writes a failure file, which
replay re-draws, and the campaign keeps going.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import time
from collections.abc import Callable

import numpy as np

from .opmat import NumericalError, op_norms
from .radii import FAMILY_TAGS, RadiusFamily, radius_table, solve_radius
from .series import (
    MatrixSeries,
    _BohrGrid,
    _layers,
    compose,
    majorant,
    mul,
    with_coeff_bound,
)
from .zoo import (
    BlaschkeSpec,
    CaratheodoryScalar,
    build_polyanalytic,
    convex_model,
    draw_schur,
    expand,
    mobius_extremal,
    random_blaschke_spec,
    starlike_from_q,
)

__all__ = [
    "CampaignConfig",
    "TrialRecord",
    "Report",
    "SharpnessScan",
    "Suite",
    "SUITES",
    "default_grid",
    "run_campaign",
    "replay",
    "run_sharpness_scan",
    "emit_radius_table",
]

_SEED_MASK = (1 << 64) - 1

# Coefficient entries (trials x dim^2 x (degree + 1)) per block of
# trials: 14 trials at dim 3, degree 64, and 1 at dim 8, degree 128.  A
# block's series are all alive at once: blocks of 28 saved 4% more CPU
# but added 1.5 MB of peak memory instead of 0.85 MB.
_BLOCK_ENTRIES = 2**13

# run_sharpness_scan's largest grid: its Vandermonde holds steps x 65
# floats (the witness has degree 64), 52 MB.
_MAX_STEPS = 10**5


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Shared knobs for every verification campaign."""

    suite: str
    trials: int = 200
    seed: int = 0
    dim: int = 3
    degree: int = 64
    tolerance: float = 1e-8
    out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.dim <= 16:
            raise ValueError("dim must lie in 1..16")
        if not 1 <= self.degree <= 256:
            raise ValueError("degree must lie in 1..256")
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; suites: {', '.join(SUITES)}")
        if not math.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        # the report and any failure replay files go to out's directory
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError(f"output directory {os.path.dirname(self.out)!r} does not exist")
        if self.out and os.path.isdir(self.out):
            raise ValueError(f"out {self.out!r} is a directory, not a report path")


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    """One trial: the stream index, drawn parameters, worst margin and
    whether it passed; whether both ends its margin compares are proven
    bounds, and the width of the margin's enclosure at the worst radius
    (_margin)."""

    index: int
    seed: int
    params: dict
    worst_margin: float
    passed: bool
    certified: bool
    width: float


@dataclasses.dataclass
class Report:
    """Campaign outcome: config echo, per-trial records, summary stats."""

    suite: str
    config: dict
    records: list
    pass_count: int
    certified_count: int
    min_margin: float
    wall_time_s: float

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> bool:
        return self.pass_count == self.trials

    def describe(self) -> dict:
        """The report as plain dicts, sharing the records' params."""
        return {**vars(self), "records": [dict(vars(r)) for r in self.records],
                "trials": self.trials}

    def write(self, path: str) -> None:
        """Write CSV (one row per trial) to a .csv path, else the JSON report."""
        _write(path, self.describe(),
               ["index", "seed", "params", "worst_margin", "passed", "certified", "width"],
               ([r.index, r.seed, json.dumps(r.params, sort_keys=True), repr(r.worst_margin),
                 r.passed, r.certified, repr(r.width)] for r in self.records))


def _write(path: str, payload, header: list, rows) -> None:
    """Write header and rows as CSV to a path ending in .csv, and
    payload as indented JSON to any other path."""
    as_csv = path.endswith(".csv")
    with open(path, "w", newline="" if as_csv else None) as fh:
        if as_csv:
            csv.writer(fh).writerows(itertools.chain([header], rows))
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def default_grid(r_max: float) -> tuple:
    """20 equispaced radii in (0, r_max]."""
    if not 0.0 < r_max < 1.0:
        raise ValueError("r_max must lie in (0, 1)")
    return tuple(r_max * i / 20 for i in range(1, 21))


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & _SEED_MASK, index])


def _failure_path(config: CampaignConfig, index: int) -> str:
    base = os.path.dirname(config.out) if config.out else "."
    return os.path.join(base or ".", f"{config.suite}-failure-{index:05d}.json")


def _margin(pairs, m_bound: float, grid: _BohrGrid) -> list:
    """(margin, certified, width) for each of a block of (value, bound)
    pairs over grid.  The margin is the worst over the grid of m_bound
    times the lower Bohr sum of bound (1 when bound is None) minus the
    upper Bohr sum of value.  certified says whether both ends compared
    are proven bounds: a lower end, a partial sum of nonnegative terms,
    always is, and an upper end is when every series summed carries a
    tail bound, so a pair is certified when its value is.  width is the
    width of the margin's enclosure at the worst radius (the first grid
    radius where the margin is attained): value's hi - lo plus m_bound
    times bound's.  A series without a tail bound has hi == lo and adds
    nothing, so an uncertified side's width understates it.

    Against the bound 1 the grid is one radius, r_max (Suite.grid: the
    last of default_grid's), and that radius proves the margin on all
    of [0, r_max].  The upper sum of value is
    sum_l r^l (sum_n ||A_{l,n}|| r^n + C_l r^(N+1) / (1 - r)), with
    C_l = 0 for a layer without a tail bound: a sum of nonnegative
    terms, each nondecreasing in r on [0, 1).  So hi is nondecreasing
    and 1 - hi is smallest at r_max (rounding aside).

    value is a MatrixSeries or a PolyanalyticFn (its layered sum), bound
    a MatrixSeries or None.  The norms of every series the block
    compares come from one op_norms call on their stacked coefficients,
    and the sums from grid's one formula and power tables.  This is the
    one definition of a campaign margin; replaying a failure file is the
    block of its one pair.
    """
    compared = [(_layers(value), bound) for value, bound in pairs]
    series = [f for layers, bound in compared
              for f in layers + (() if bound is None else (bound,))]
    norms = np.split(op_norms(np.concatenate([f.coeffs for f in series])),
                     np.cumsum([f.degree + 1 for f in series[:-1]]))
    profiles = zip(norms, (f.coeff_bound for f in series))
    margins = []
    for layers, bound in compared:
        # a series is the layered function of its one layer, bit for bit
        lo, hi, certified = grid.layered(itertools.islice(profiles, len(layers)))
        lower, upper = (1.0, 1.0) if bound is None else grid.bohr(*next(profiles))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            margin = m_bound * lower - hi
            worst = int(np.argmin(margin))
            width = float((hi - lo + m_bound * (upper - lower))[worst])
        if not (np.isfinite(margin).all() and math.isfinite(width)):
            raise NumericalError("a margin or its width is not finite: the Bohr sums overflow")
        margins.append((float(margin[worst]), certified, width))
    return margins


def _trials(draw: Callable, config: CampaignConfig, indices) -> list:
    """The (params, instance) of config's trials at indices.  One zoo.expand
    call expands their draws; a draw's bits do not depend on the block."""
    drawn = [draw(_trial_rng(config.seed, index)) for index in indices]
    series = iter(expand([d for _, draws, _ in drawn for d in draws], config.degree))
    return [(params, finish(*itertools.islice(series, len(draws))))
            for params, draws, finish in drawn]


def run_campaign(config: CampaignConfig, **options) -> Report:
    """Run config.suite's campaign with options, the suite's own options
    (one it does not read is an error, one not given takes its default).
    A failed trial writes {"suite", "config", "options", "record"} to
    _failure_path: the report's config echo (the campaign's config plus
    the suite's own entries), the options prepare got and its record.
    """
    suite = SUITES[config.suite]
    for name in options:
        if name not in suite.options:
            readers = " or ".join(s.name for s in SUITES.values() if name in s.options)
            raise ValueError(f"{name} only applies to the {readers} suite, not to {suite.name}"
                             if readers else f"no suite reads {name}")
    options = {**suite.options, **options}
    extra, draw = suite.prepare(config, **options)
    start = time.perf_counter()
    echo = {**vars(config), **extra}
    grid = suite.grid(echo)
    m_bound = suite.m_bound(echo)
    block = max(1, _BLOCK_ENTRIES // (config.dim**2 * (config.degree + 1)))
    records = []
    for first in range(0, config.trials, block):
        indices = range(first, min(first + block, config.trials))
        trials = _trials(draw, config, indices)
        margins = _margin([suite.compared(instance) for _, instance in trials], m_bound, grid)
        for index, (params, _), (margin, certified, width) in zip(indices, trials, margins):
            record = TrialRecord(index, config.seed, params, margin, margin >= -config.tolerance,
                                 certified, width)
            records.append(record)
            if not record.passed:
                with open(_failure_path(config, index), "w") as fh:
                    json.dump({"suite": config.suite, "config": echo, "options": options,
                               "record": vars(record)}, fh, indent=2, sort_keys=True)

    report = Report(
        suite=config.suite,
        config=echo,
        records=records,
        pass_count=sum(r.passed for r in records),
        certified_count=sum(r.certified for r in records),
        min_margin=min(r.worst_margin for r in records),
        wall_time_s=time.perf_counter() - start,
    )
    if config.out:
        report.write(config.out)
    return report


def replay(dump: dict) -> tuple:
    """A failure file's (margin, certified, width), recomputed from its
    trial re-drawn alone: its config echo (out aside, so the report may be
    gone), options and record index fix the draws, through numpy's PCG64
    stream and the current zoo.expand.  A missing or mistyped entry is a ValueError."""
    try:
        _, echo, options, record = (dump[key] for key in ("suite", "config", "options", "record"))
        config = CampaignConfig(**{f.name: echo[f.name] for f in dataclasses.fields(CampaignConfig)
                                   if f.name != "out"})
        suite = SUITES[config.suite]
        options = {name: options[name] for name in suite.options}
        index, *_ = (record[key] for key in ("index", "worst_margin", "certified", "width"))
        extra, draw = suite.prepare(config, **options)
        [(_, instance)] = _trials(draw, config, [index])
    except (KeyError, TypeError) as exc:  # a key missing, or an entry of the wrong type
        raise ValueError(f"malformed failure file: {exc!r}") from None
    echo = {**vars(config), **extra}
    return _margin([suite.compared(instance)], suite.m_bound(echo), suite.grid(echo))[0]


def _draw_target(rng: np.random.Generator, config: CampaignConfig):
    """A random subordination target: its parameters, its draws (one
    Schur draw, or none for a model) and a function from their series
    to the target g and the tail bound its subordinates inherit: Schur
    targets give 1, convex targets give their beta, starlike targets
    give none."""
    kind = ("schur", "convex", "starlike")[int(rng.integers(3))]
    if kind == "schur":
        return {"target": "schur"}, [draw_schur(rng, config.dim)], lambda g: (g, 1.0)
    if kind == "convex":
        beta = float(rng.uniform(0.25, 2.0))
        return ({"target": "convex", "beta": beta}, [],
                lambda: (convex_model(beta, config.dim, config.degree), beta))
    u = float(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return ({"target": "starlike", "u": [u.real, u.imag]}, [],
            lambda: (starlike_from_q(CaratheodoryScalar(u), config.dim, config.degree), None))


def _inner(rng: np.random.Generator) -> BlaschkeSpec:
    """Random origin-fixed Blaschke product (an admissible inner map)."""
    return random_blaschke_spec(rng, fix_origin=True)


def _prepare_subordination(config: CampaignConfig):
    def draw(rng):
        params, draws, target = _draw_target(rng, config)

        def finish(phi, *target_series):
            g, f_bound = target(*target_series)
            return {"g": g, "phi": phi, "f": with_coeff_bound(compose(g, phi), f_bound)}

        return params, [_inner(rng)] + draws, finish

    return {"r_max": 1.0 / 3.0}, draw


def _prepare_quasi(config: CampaignConfig, m_bound: float, quasi_beta: float):
    """The quasi suite, for an m_bound whose trials cannot overflow.

    With n = degree, d = dim, W = m_bound beta^-n (the largest of h's
    weights) and B = max(2, n), 4 d (n + 1) B W must be finite, which
    suffices.  Proof: B bounds the coefficient norms of the target g (1
    for a Schur target, its beta <= 2 for a convex one, n for a
    starlike one) and of g o phi, which is subordinate to g (a Schur
    function stays one; Rogosinski's theorem for convex and starlike g).
    ||h_i|| <= m_bound beta^-i <= W, and an entry is at most its
    matrix's norm.  A real or imaginary part of an entry of
    f_k = sum_{i+j=k} h_i (g o phi)_j thus sums at most 2 d (n + 1)
    products of modulus at most B W, and every partial sum, in any
    order, is at most 2 d (n + 1) B W.  Either Bohr sum of g (tail
    allowance included, r <= 1/3) is at most (n + 2) B, and as
    ||f_k|| <= (k + 1) B m_bound beta^-k, f's at r <= beta/3 is at most
    sum_k (k + 1) 3^-k B m_bound <= (n + 1) B m_bound; so the margin and
    its width are at most (2n + 3) B m_bound.  op_norms rescales the Gram
    matrices.  The factor of at least 4/3 left covers rounding, whose
    relative growth in these sums and in the computed coefficients is
    far below 1/3.
    """
    if not 0.0 < m_bound < math.inf or not 0.0 < quasi_beta <= 1.0:
        raise ValueError("need a finite m_bound > 0 and quasi_beta in (0, 1]")
    n = config.degree
    # coefficient n of m_bound * s(z / beta) is m_bound beta^-n s_n
    with np.errstate(over="ignore"):
        weights = m_bound * quasi_beta ** -np.arange(n + 1.0)
    if not math.isfinite(4 * config.dim * (n + 1) * max(2, n) * float(weights[-1])):
        raise ValueError(f"m_bound {m_bound} with quasi_beta {quasi_beta} at degree {n} and dim "
                         f"{config.dim} can overflow: 4 dim (degree + 1) max(2, degree) m_bound "
                         f"quasi_beta^-degree must be finite")

    def draw(rng):
        params, draws, target = _draw_target(rng, config)

        def finish(phi, s, *target_series):
            g, _ = target(*target_series)
            h = MatrixSeries(s.coeffs * weights[:, None, None])
            return {"g": g, "phi": phi, "h": h, "f": mul(h, compose(g, phi))}

        return params, [_inner(rng), draw_schur(rng, config.dim, scalar_head=True)] + draws, finish

    return {"m_bound": m_bound, "beta": quasi_beta, "r_max": quasi_beta / 3.0}, draw


def _prepare_von_neumann(config: CampaignConfig):
    def finish(f, phi):
        return {"f": f, "phi": phi, "composition": with_coeff_bound(compose(f, phi), 1.0)}

    def draw(rng):
        return {}, [draw_schur(rng, config.dim, scalar_head=True), _inner(rng)], finish

    return {"r_max": 1.0 / 3.0}, draw


# A base layer's generator returns its one draw and the function from
# that draw's series to the layer.
def _general_layer(rng, fam: RadiusFamily, config: CampaignConfig):
    return draw_schur(rng, config.dim, fix_origin=True), lambda f0: f0


def _convex_layer(rng, fam: RadiusFamily, config: CampaignConfig):
    return _inner(rng), lambda phi: with_coeff_bound(
        compose(convex_model(fam.beta, config.dim, config.degree), phi), fam.beta)


def _starlike_layer(rng, fam: RadiusFamily, config: CampaignConfig):
    phi = _inner(rng)
    u = float(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return phi, lambda phi: compose(
        starlike_from_q(CaratheodoryScalar(u), config.dim, config.degree), phi)


# The poly suites' grids end this far short of the solved radius, the
# default tolerance; a campaign's tolerance is its pass threshold only.
POLY_GRID_GAP = 1e-8


def _prepare_poly(tag: str, base_layer, config: CampaignConfig, k: float, p, **param):
    fam = RadiusFamily(tag, k=k, p=p, **param)
    # every layer is allocated, while at radii <= 1/3 layer 63 weighs at most 3^-63
    if not fam.p <= 64:
        raise ValueError("campaigns need a finite order p <= 64")
    if tag == "general" and fam.lam < 1.0:
        raise ValueError("poly-general draws origin-fixed contractions, which meet the "
                         "general hypothesis only for lambda >= 1")
    p = int(fam.p)
    radius = solve_radius(fam).radius

    def draw(rng):
        base, layer = base_layer(rng, fam, config)
        omegas = [draw_schur(rng, config.dim, scalar_head=True) for _ in range(p - 1)]
        # the p - 1 ratio functions' diagonals are realized at one order
        order = max(w.order for w in omegas)

        def finish(f, *omegas):
            return {"fn": build_polyanalytic(layer(f), [MatrixSeries(fam.k * w.coeffs, fam.k)
                                                        for w in omegas])}

        return {}, [base] + [dataclasses.replace(w, order=order) for w in omegas], finish

    return {"family": fam.describe(), "radius": radius}, draw


@dataclasses.dataclass(frozen=True)
class Suite:
    """One verify suite: its name, hypothesis (doc), and the options it
    reads with their defaults.  prepare(config, **options) checks them
    and returns the suite's config echo entries and draw(rng), which
    returns a trial's (params, draws, finish): finish maps the draws'
    series (zoo.expand's) to the trial's instance, a dict of functions
    by name.  r_max and m_bound read the grid's end and the bound's
    multiplier from the config echo; the margin compares the instance
    entries value and bound (None for the bound 1).
    """

    name: str
    doc: str
    options: dict
    prepare: Callable
    value: str
    bound: str | None
    r_max: Callable = lambda echo: echo["r_max"]
    m_bound: Callable = lambda echo: 1.0

    def grid(self, echo: dict) -> _BohrGrid:
        """The radii a campaign's margins are taken over: default_grid
        up to r_max, or against the bound 1 its last radius alone, where
        the margin is smallest (_margin)."""
        radii = default_grid(self.r_max(echo))
        return _BohrGrid(radii if self.bound is not None else radii[-1:])

    def compared(self, instance: dict) -> tuple:
        """The (value, bound) pair of instance the margin compares."""
        return instance[self.value], None if self.bound is None else instance[self.bound]


SUITES = {suite.name: suite for suite in (
    Suite("subordination", "f subordinate to g implies Bohr(f, r) <= Bohr(g, r) for r <= 1/3; "
          "f = g(phi) is subordinate by construction to a random target g, for a random "
          "origin-fixed inner map phi.", {}, _prepare_subordination, "f", "g"),
    Suite("quasi", "f = h * (g o phi) with ||h|| <= m_bound on |z| < beta implies Bohr(f, r) <= "
          "m_bound * Bohr(g, r) for r <= beta/3; h = m_bound * s(z / beta) for a random Schur "
          "function s meets its sup bound structurally, but carries no tail bound, as its "
          "coefficients may grow like beta^-n.", {"m_bound": 1.5, "quasi_beta": 0.9},
          _prepare_quasi, "f", "g", m_bound=lambda echo: echo["m_bound"]),
    Suite("von-neumann", "Composition with an inner map keeps the Bohr sum of a contraction "
          "below 1 for r <= 1/3: Bohr(f o phi, r) <= sup ||f|| = 1.",
          {}, _prepare_von_neumann, "composition", None),
    *(Suite(f"poly-{tag}", "F's layered Bohr sum stays <= 1 up to the family's computed "
            "radius, for a base layer meeting the family's hypothesis and p - 1 ratio functions "
            "of norm <= k (scaled Schur functions).",
            {"k": 1.0, "p": 2, **param}, functools.partial(_prepare_poly, tag, layer), "fn", None,
            r_max=lambda echo: echo["radius"] - POLY_GRID_GAP)
      for tag, param, layer in (("general", {"lam": 1.0}, _general_layer),
                                ("convex", {"beta": 1.0}, _convex_layer),
                                ("starlike", {}, _starlike_layer))),
)}


@dataclasses.dataclass(frozen=True)
class SharpnessScan:
    """Scan of the extremal witness's Bohr sum against 1."""

    a: float
    r_values: tuple
    bohr_values: tuple
    first_exceed: float | None
    threshold: float | None
    predicted_threshold: float


def run_sharpness_scan(a: float, r_min: float = 0.0, r_max: float = 0.5,
                       steps: int = 200) -> SharpnessScan:
    """Tabulate the Bohr sum of the disk automorphism witness, to degree
    64, on a grid and locate where it first exceeds 1.

    The crossing, refined by bisection on the truncated sum, sits at
    1/(1 + 2a); as a -> 1 it approaches 1/3 from above, which is what
    makes the constant 1/3 sharp.  Lower endpoints are used throughout
    so an excess over 1 is genuine rather than a tail allowance.  The
    bisection starts from the grid point before the first excess, or
    from r = 0 when the window's first point already exceeds 1: the sum
    is a < 1 at r = 0 and increases in r, so the crossing lies between.
    """
    if not 0.0 <= r_min < r_max < 1.0:
        raise ValueError("need 0 <= r_min < r_max < 1")
    if not 2 <= steps <= _MAX_STEPS:
        raise ValueError(f"steps must lie in 2..{_MAX_STEPS}")
    f = mobius_extremal(a, 64)
    m = majorant(f)
    rs = np.linspace(r_min, r_max, steps)
    vals = m.bohr(rs)[0]
    exceed = np.nonzero(vals > 1.0)[0]
    first_exceed = float(rs[exceed[0]]) if exceed.size else None
    threshold = None
    if exceed.size:
        lo, hi = float(rs[exceed[0] - 1]) if exceed[0] else 0.0, float(rs[exceed[0]])
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if m.bohr([mid])[0][0] > 1.0:
                hi = mid
            else:
                lo = mid
        threshold = 0.5 * (lo + hi)
    return SharpnessScan(
        a=float(a),
        r_values=tuple(float(r) for r in rs),
        bohr_values=tuple(float(v) for v in vals),
        first_exceed=first_exceed,
        threshold=threshold,
        predicted_threshold=1.0 / (1.0 + 2.0 * float(a)),
    )


def emit_radius_table(families=None, out: str | None = None, tol: float = 1e-12) -> list:
    """The radius table of radii.radius_table: one row per (family,
    parameters) combination, with root, certified bracket, cap, usable
    radius, and which of root/cap binds.  families lists the tags in the
    order wanted, each once (default: all).  Written when out is given:
    CSV to a .csv path, else JSON.
    """
    families = FAMILY_TAGS if families is None else tuple(families)
    unknown = [f for f in families if f not in FAMILY_TAGS]
    if unknown:
        raise ValueError(f"unknown families: {unknown}")
    if not families or len(set(families)) < len(families):
        raise ValueError(f"families must list at least one tag and none twice: {list(families)}")
    rows = radius_table(families, tol)
    if out:
        _write(out, rows, list(rows[0]), (list(row.values()) for row in rows))
    return rows
