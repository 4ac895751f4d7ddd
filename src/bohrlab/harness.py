"""Randomized verification campaigns over the function families.

A campaign draws seeded random instances of an inequality's hypothesis,
encloses both sides' Bohr sums, and records the worst margin (bound
minus value) over a radius grid.  A trial passes when its margin is
>= -tolerance.  The ends compared face the "wrong" way: the upper end
for the quantity being bounded, the lower end for the bound.  A lower
end, a partial sum of nonnegative terms, is always a lower bound, but
an upper end is an upper bound only when every series in it carries a
growth class (series.MatrixSeries), and only then is a pass evidence
that the inequality holds for that instance rather than an artifact of
truncation.  Each record says whether both ends were proven bounds
(certified) and how wide the margin's enclosure is at its worst
radius.  Every series a campaign sums carries the class the operation
that made it proves, so every record is tail-certified; floating-point
rounding is enclosed on neither side.  A failed trial is one the
campaign could not certify, not a violation found: at a low degree the
tail allowance alone fails trials whose lower ends pass (worst_margin +
width >= 0).

SUITES defines each suite by its prepare (Suite), which states its
hypothesis and returns the radii, growth class and draw that
run_campaign and replay both run through _trials.

Expansion degree: config.degree is the most a campaign expands.  Each
suite's prepare states, before any series exists, a growth class (C, s)
that contains the class of every series its margin sums, and the
campaign expands them only to the smallest N at which the stated
class's tail allowance at its largest radius is at most 2^-60
(_expansion_degree, with the proof that this loses nothing the campaign
claims).  The report's config echo holds N as "expansion_degree" when
it is below config.degree.

Determinism: trial i of a campaign with seed s uses the generator
default_rng([s, i]), so reports are reproducible.  A trial first makes
its random draws and then builds its functions from their series, and
the campaign runs in blocks of trials: every trial of a block is drawn,
in index order, before one zoo.expand call expands all their random
functions at once, to the expansion degree, and every trial is
finished before one _margin call forms all the block's margins.  The
draws, and so the reports, do not depend on the block size.  A failed
trial writes a failure file, which replay re-draws, and the campaign
keeps going.
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
)
from .zoo import (
    BlaschkeSpec,
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

# Coefficient entries (trials x dim^2 x (N + 1), N the expansion degree)
# per block of trials, so a block holds fewer trials the larger the dim
# and N.  A block's series are all alive at once: blocks of 28 saved 4%
# more CPU but added 1.5 MB of peak memory instead of 0.85 MB.
_BLOCK_ENTRIES = 2**13

# A tail allowance this small is below 1/256 of an ulp of 1 (2^-52).
_INVISIBLE_TAIL = 2.0**-60

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


def _margin(pairs, grid: _BohrGrid) -> list:
    """(margin, certified, width) for each of a block of (value, bound)
    pairs over grid.  The margin is the worst over the grid of the lower
    Bohr sum of bound (1 when bound is None) minus the upper Bohr sum of
    value.  certified says whether both ends compared are proven bounds:
    a lower end, a partial sum of nonnegative terms, always is, and an
    upper end is when every series summed carries a growth class, so a
    pair is certified when its value is.  width is the width of the
    margin's enclosure at the worst radius (the first grid radius where
    the margin is attained): value's hi - lo plus bound's, their class
    allowances.  A series without a class has hi == lo and adds
    nothing, so an uncertified side's width understates it.

    Against the bound 1 the grid is one radius, r_max (the last of
    default_grid's, as the suite's prepare returns it), and that radius
    proves the margin on all of [0, r_max].  The upper sum of value is
    sum_l r^l (sum_n ||A_{l,n}|| r^n + T_l), T_l layer l's class
    allowance past its degree N (_BohrGrid.tail): a sum of nonnegative
    terms, each nondecreasing in r on [0, 1).  So hi is nondecreasing
    and 1 - hi is smallest at r_max (rounding aside).  N is each
    series' own degree: the expansion degree (_expansion_degree), or
    less where a product or composition truncated.

    value is a MatrixSeries or a PolyanalyticFn (its layered sum), bound
    a MatrixSeries or None.  The norms of every series the block
    compares come from one op_norms call per coefficient size (1x1 for
    a model target) on their stacked coefficients, and the sums from
    grid's one formula and tables.  This is the one definition of a
    campaign margin; replaying a failure file is the block of its one
    pair.
    """
    compared = [(_layers(value), bound) for value, bound in pairs]
    series = [f for layers, bound in compared
              for f in layers + (() if bound is None else (bound,))]
    norms = {}
    for dim in {f.dim for f in series}:
        group = [f for f in series if f.dim == dim]
        norms.update(zip(group, np.split(op_norms(np.concatenate([f.coeffs for f in group])),
                                         np.cumsum([f.degree + 1 for f in group[:-1]]))))
    profiles = ((norms[f], f.growth) for f in series)
    margins = []
    for layers, bound in compared:
        # a series is the layered function of its one layer, bit for bit
        lo, hi, certified = grid.layered(itertools.islice(profiles, len(layers)))
        lower, upper = (1.0, 1.0) if bound is None else grid.bohr(*next(profiles))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            margin = lower - hi
            worst = int(np.argmin(margin))
            width = float((hi - lo + (upper - lower))[worst])
        if not (np.isfinite(margin).all() and math.isfinite(width)):
            raise NumericalError("a margin or its width is not finite: the Bohr sums overflow")
        margins.append((float(margin[worst]), certified, width))
    return margins


def _expansion_degree(degree: int, grid: _BohrGrid, growth: tuple) -> int:
    """The smallest N in 1..degree at which the tail allowance T_N of
    the growth class (C, s) = growth, grid.tail(N + 1, C, s), is at most
    2^-60 at the grid's largest radius, or degree if there is none.  One
    array evaluation at that radius covers every N.  Every stated class
    has C >= 1, so T_0 >= 2^s C r >= r, and T_0 is invisible only at a
    largest radius below 2^-60, as a poly suite's can be (its grid ends
    1e-8 short of its radius); N is at least 1 there, as the draws build
    their series at N.

    Expanding to N instead of degree loses nothing the campaign claims,
    when every series the margin sums carries a class (c, t), c <= C and
    t <= s.  With S_M = sum_{n<=M} ||A_n|| r^n and t_M the carried
    class's allowance past degree M, a series' ends at degree M are S_M
    and S_M + t_M.  The ratio q_n = r ((n+2)/(n+1))^t of the bounds
    b_n = c (n+1)^t r^n >= ||A_n|| r^n falls in n, so t_M = b_{M+1} /
    (1 - q_{M+1}) >= b_{M+1} + t_{M+1}, and for N < M, t_N >= S_M - S_N
    + t_M.  So S_N <= S_M and S_M + t_M <= S_N + t_N: the ends at N are
    proven bounds, as those at M are, certified is the same, and each
    moves by at most t_N <= T_N.  In exact arithmetic T_N is
    nondecreasing in r, so the grid's largest radius bounds it at every
    radius, and it is at most 2^-60 there: 1/256 of an ulp of 1, where
    an upper sum compared with the bound 1 sits.  A layered value,
    sum_l r^l S^(l) (the poly suites'), whose every layer lies in a
    class (K, s), moves by at most sum_l r^l T_N^K <= T_N^K / (1 - r),
    the allowance of (K / (1 - r), s): a poly suite states that class,
    for r its grid's one radius.  A class may state a larger C than its
    series need, and then bounds their moves more tightly still
    (_prepare_quasi).
    Whether a float moves is measured, not proven: the tests pin the
    records at N to those of the full expansion to degrees 64 and 128,
    bit for bit but for quasi's margins, which its products may round
    another way by at most 1e-12.
    """
    top = _BohrGrid(grid.r.max(keepdims=True))
    invisible = np.flatnonzero(top.tail(np.arange(1, degree + 1), *growth) <= _INVISIBLE_TAIL)
    return max(1, int(invisible[0])) if invisible.size else degree


def _prepare(config: CampaignConfig, options: dict) -> tuple:
    """config's suite prepared with its completed options: the suite's
    config echo entries, grid, draw and expansion degree N,
    which run_campaign and replay both pass to _trials.  The echo
    entries hold N as "expansion_degree" when it is below config.degree."""
    extra, radii, growth, draw = SUITES[config.suite].prepare(config, **options)
    grid = _BohrGrid(radii)
    degree = _expansion_degree(config.degree, grid, growth)
    if degree < config.degree:
        extra = {**extra, "expansion_degree": degree}
    return extra, grid, draw, degree


def _trials(draw: Callable, degree: int, grid, seed: int, indices) -> list:
    """The (params, (margin, certified, width)) of the trials at indices
    of a campaign with seed seed.  Each draw builds its own series at
    degree, one zoo.expand call expands their draws to it, and one
    _margin call forms their margins; a draw's bits do not depend on the
    block."""
    drawn = [draw(_trial_rng(seed, index), degree) for index in indices]
    series = iter(expand([d for _, draws, _ in drawn for d in draws], degree))
    pairs = [finish(*itertools.islice(series, len(draws))) for _, draws, finish in drawn]
    return list(zip([params for params, _, _ in drawn], _margin(pairs, grid)))


def _options(suite: Suite, options: dict) -> dict:
    """options over suite's defaults; a name it does not read is a ValueError."""
    for name in options:
        if name not in suite.options:
            readers = " or ".join(s.name for s in SUITES.values() if name in s.options)
            raise ValueError(f"{name} only applies to the {readers} suite, not to {suite.name}"
                             if readers else f"no suite reads {name}")
    return {**suite.options, **options}


def run_campaign(config: CampaignConfig, **options) -> Report:
    """Run config.suite's campaign with the suite's own options
    (_options).  A failed trial writes {"suite", "config", "options",
    "record"} to _failure_path: the report's config echo (the campaign's
    config plus the suite's own entries), the options prepare got and
    its record."""
    options = _options(SUITES[config.suite], options)
    extra, grid, draw, degree = _prepare(config, options)
    start = time.perf_counter()
    echo = {**vars(config), **extra}
    block = max(1, _BLOCK_ENTRIES // (config.dim**2 * (degree + 1)))
    records = []
    for first in range(0, config.trials, block):
        indices = range(first, min(first + block, config.trials))
        trials = _trials(draw, degree, grid, config.seed, indices)
        for index, (params, (margin, certified, width)) in zip(indices, trials):
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
    stream and the current zoo.expand, at the expansion degree _prepare
    gives.  A missing, mistyped or invalid entry (a record's
    worst_margin, certified and width must be a float, a bool and a
    float), or a suite, record seed, params, passed, options or suite
    echo entries (the expansion degree included) other than
    run_campaign would write, is a ValueError."""
    try:
        _, echo, options, record = (dump[key] for key in ("suite", "config", "options", "record"))
        config = CampaignConfig(**{f.name: echo[f.name] for f in dataclasses.fields(CampaignConfig)
                                   if f.name != "out"})
        completed = _options(SUITES[config.suite], options)
        index, seed, recorded, passed, *outcome = (record[key] for key in (
            "index", "seed", "params", "passed", "worst_margin", "certified", "width"))
        extra, grid, draw, degree = _prepare(config, completed)
        [(params, margins)] = _trials(draw, degree, grid, config.seed, [index])
    except (KeyError, TypeError, ValueError) as exc:  # a key missing, an entry refused
        raise ValueError(f"malformed failure file: {exc!r}") from None
    extra, echoed = json.loads(json.dumps(extra)), {key: echo.get(key) for key in extra}
    if (options, echoed) != (completed, extra):
        raise ValueError(f"malformed failure file: options {options!r} and config entries "
                         f"{echoed!r} are not the completed {completed!r} and prepare's {extra!r}")
    if (dump["suite"], seed) != (config.suite, config.seed):
        raise ValueError(f"malformed failure file: suite {dump['suite']!r} and record seed "
                         f"{seed!r} are not the config's {config.suite!r} and {config.seed!r}")
    if recorded != json.loads(json.dumps(params)) or passed is not False:
        raise ValueError(f"malformed failure file: record params {recorded!r} and passed "
                         f"{passed!r} are not the re-drawn trial's {params!r} and False")
    if [type(value) for value in outcome] != [float, bool, float]:
        raise ValueError(f"malformed failure file: record worst_margin, certified and width "
                         f"{outcome!r} are not a float, a bool and a float")
    return margins


def _subordinate(g: MatrixSeries, phi: MatrixSeries) -> MatrixSeries:
    """f = g o phi for an origin-fixed inner map phi, with g's growth
    class, which f, subordinate to g, inherits for the zoo's targets: a
    Schur g makes f a Schur function, (1, 0); for the convex model
    beta z/(1-z) I Rogosinski's theorems give ||f_n|| <= beta, (beta, 0),
    and for the starlike model ||f_n|| <= n, (1, 1).  The rule holds for
    these kinds of g, not for an arbitrary g."""
    return MatrixSeries(compose(g, phi).coeffs, g.growth)


# The convex targets' beta is drawn from uniform(*_CONVEX_BETAS).
_CONVEX_BETAS = (0.25, 2.0)

# A growth class containing the class of every subordination pair
# (f, g), their target's (_subordinate): (1, 0), (beta, 0) with beta <=
# _CONVEX_BETAS[1] or (1, 1), each within (max(1, _CONVEX_BETAS[1]), 1).
_SUBORDINATION_GROWTH = (max(1.0, _CONVEX_BETAS[1]), 1)


def _draw_u(rng: np.random.Generator) -> complex:
    """A random Caratheodory parameter u, |u| < 1, for starlike_from_q."""
    return float(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def _draw_target(rng: np.random.Generator, dim: int, degree: int):
    """A random subordination target: its parameters, its draws (one
    Schur draw, or none) and its model series at degree (None for a
    Schur target)."""
    kind = ("schur", "convex", "starlike")[int(rng.integers(3))]
    if kind == "schur":
        return {"target": "schur"}, [draw_schur(rng, dim)], None
    if kind == "convex":
        beta = float(rng.uniform(*_CONVEX_BETAS))
        return {"target": "convex", "beta": beta}, [], convex_model(beta, degree)
    u = _draw_u(rng)
    return {"target": "starlike", "u": [u.real, u.imag]}, [], starlike_from_q(u, degree)


def _inner(rng: np.random.Generator) -> BlaschkeSpec:
    """Random origin-fixed Blaschke product (an admissible inner map)."""
    return random_blaschke_spec(rng, fix_origin=True)


def _prepare_subordination(config: CampaignConfig):
    """f subordinate to g implies Bohr(f, r) <= Bohr(g, r) for r <= 1/3;
    f = g(phi) is subordinate by construction to a random target g, for
    a random origin-fixed inner map phi."""
    def draw(rng, degree):
        params, draws, model = _draw_target(rng, config.dim, degree)

        def finish(phi, g=model):
            return _subordinate(g, phi), g

        return params, [_inner(rng)] + draws, finish

    return {"r_max": 1.0 / 3.0}, default_grid(1.0 / 3.0), _SUBORDINATION_GROWTH, draw


def _prepare_quasi(config: CampaignConfig, m_bound: float, quasi_beta: float):
    """f = h * (g o phi) with ||h|| <= m_bound on |z| < beta implies
    Bohr(f, r) <= m_bound * Bohr(g, r) for r <= beta/3; h = m_bound *
    s(z / beta) for a random Schur function s meets its sup bound
    structurally.  The margin is taken in w = r / beta, on
    default_grid(1/3): term by term, Bohr(F, r) = Bohr(F(beta .), r / beta),
    where F(beta .) has coefficients beta^n F_n, and f(beta w) = m_bound
    s(w) (g o phi)(beta w), so a trial is subordination's pair, dilated
    and scaled by m_bound, times s, against the bound m_bound g(beta .):
    a Bohr sum is positively homogeneous, so m_bound Bohr(g, r) =
    Bohr(m_bound g, r).

    Growth class: the dilated pair carries (m_bound C, t) for a series
    in (C, t), as ||m_bound beta^n A_n|| <= m_bound C (n+1)^t for
    beta <= 1, which lies in (m_bound K, t) for subordination's class
    (K, t); times s, in (1, 0), the value carries (m_bound K, t + 1) by
    mul's rule, which holds the bound too: (2 m_bound, 2).
    The class states C = 2 max(1, m_bound), which holds them as well,
    so that a small m_bound does not shrink the expansion degree: the
    sums, of size m_bound, move by at most 2^-60 min(1, m_bound), below
    1/128 of an ulp of m_bound (_expansion_degree).

    With B = max(2, degree), 4 dim (degree + 1) B m_bound must be finite:
    the coefficients of s, the bound and m_bound times the dilated
    g o phi are at most 1, B m_bound and B m_bound (_subordinate's
    bounds), so a product entry sums at most 2 dim (degree + 1) real or
    imaginary parts of modulus <= B m_bound, and at w <= 1/3 the margin
    and its width are at most (2 degree + 3) B m_bound, leaving a factor
    >= 4/3 for rounding.
    """
    if not 0.0 < m_bound < math.inf or not 0.0 < quasi_beta <= 1.0:
        raise ValueError("need a finite m_bound > 0 and quasi_beta in (0, 1]")
    n = config.degree
    if not math.isfinite(4 * config.dim * (n + 1) * max(2, n) * m_bound):
        raise ValueError(f"m_bound {m_bound} at degree {n} and dim {config.dim} can overflow: "
                         f"4 dim (degree + 1) max(2, degree) m_bound must be finite")
    *_, (bound, exponent), subordinate = _prepare_subordination(config)

    def draw(rng, degree):
        params, draws, pair = subordinate(rng, degree)
        scale = m_bound * quasi_beta ** np.arange(degree + 1.0)[:, None, None]

        def dilated(h):
            return MatrixSeries(h.coeffs * scale, (m_bound * h.growth[0], h.growth[1]))

        def finish(*series):
            f, g = pair(*series[:-1])
            return mul(series[-1], dilated(f)), dilated(g)

        return params, draws + [draw_schur(rng, config.dim, scalar_head=True)], finish

    return ({"m_bound": m_bound, "beta": quasi_beta, "r_max": quasi_beta / 3.0},
            default_grid(1.0 / 3.0), (max(1.0, m_bound) * bound, exponent + 1), draw)


def _prepare_von_neumann(config: CampaignConfig):
    """Composition with an inner map keeps the Bohr sum of a contraction
    below 1 for r <= 1/3: Bohr(f o phi, r) <= sup ||f|| = 1."""
    def finish(f, phi):
        return _subordinate(f, phi), None

    def draw(rng, degree):
        return {}, [draw_schur(rng, config.dim, scalar_head=True), _inner(rng)], finish

    # f o phi is a Schur function and carries (1, 0) (_subordinate)
    return {"r_max": 1.0 / 3.0}, default_grid(1.0 / 3.0)[-1:], (1.0, 0), draw


# A base layer's generator returns its one draw and the function from
# that draw's series, at degree, to the layer.
def _general_layer(rng, fam: RadiusFamily, dim: int, degree: int):
    return draw_schur(rng, dim, fix_origin=True), lambda f0: f0


def _convex_layer(rng, fam: RadiusFamily, dim: int, degree: int):
    return _inner(rng), functools.partial(_subordinate, convex_model(fam.beta, degree))


def _starlike_layer(rng, fam: RadiusFamily, dim: int, degree: int):
    phi = _inner(rng)
    return phi, functools.partial(_subordinate, starlike_from_q(_draw_u(rng), degree))


# The poly suites' grids end this far short of the solved radius, the
# default tolerance; a campaign's tolerance is its pass threshold only.
POLY_GRID_GAP = 1e-8


def _prepare_poly(tag: str, base_layer, config: CampaignConfig, k: float, p, **param):
    """F's layered Bohr sum stays <= 1 up to the family's computed
    radius, for a base layer meeting the family's hypothesis and p - 1
    ratio functions of norm <= k (scaled Schur functions).

    Growth class: with f_0 in (C, s), a Schur function's or its model's
    (_subordinate), and omega_l in (k, 0), the layer f_l carries
    (2^s C k, s + 1), so every layer is in (K, s + 1) for K = max(1, C,
    2^s C k); the 1, as in quasi's class, keeps a small k or beta from
    shrinking the expansion degree.  The margin sums sum_l r^l
    Bohr(f_l, r), so prepare states (K / (1 - r), s + 1) at its grid's
    one radius r (_expansion_degree).
    """
    fam = RadiusFamily(tag, k=k, p=p, **param)
    # every layer is allocated, while at radii <= 1/3 layer 63 weighs at most 3^-63
    if not fam.p <= 64:
        raise ValueError("campaigns need a finite order p <= 64")
    if tag == "general" and fam.lam < 1.0:
        raise ValueError("poly-general draws origin-fixed contractions, which meet the "
                         "general hypothesis only for lambda >= 1")
    p = int(fam.p)
    radius = solve_radius(fam).radius
    if not radius > POLY_GRID_GAP:
        raise ValueError(f"{fam.describe()} has radius {radius!r}, at most the grid gap "
                         f"{POLY_GRID_GAP}: no grid radius is left below it")
    radii = default_grid(radius - POLY_GRID_GAP)[-1:]
    bound, exponent = {"general": (1.0, 0), "convex": (fam.beta, 0), "starlike": (1.0, 1)}[tag]
    layer_bound = max(1.0, bound, 2.0**exponent * bound * fam.k)

    def draw(rng, degree):
        base, layer = base_layer(rng, fam, config.dim, degree)
        omegas = [draw_schur(rng, config.dim, scalar_head=True) for _ in range(p - 1)]

        def finish(f, *omegas):
            # a Schur omega is in (1, 0), so k omega is in (k, 0)
            ratios = [MatrixSeries(fam.k * w.coeffs, (fam.k, 0)) for w in omegas]
            return build_polyanalytic(layer(f), ratios), None

        return {}, [base] + omegas, finish

    return ({"family": fam.describe(), "radius": radius}, radii,
            (layer_bound / (1.0 - radii[0]), exponent + 1), draw)


@dataclasses.dataclass(frozen=True)
class Suite:
    """One verify suite: its name, the options it reads with their
    defaults, and prepare(config, **options), whose docstring states the
    suite's hypothesis.  prepare checks the options and returns the
    suite's config echo entries, the radii its margins are taken over,
    a growth class (C, s) containing the class of every series the
    margin sums (_expansion_degree) and draw(rng, degree), which
    returns a trial's (params, draws, finish): finish maps the draws' series (zoo.expand's,
    at degree) to the (value, bound) pair the margin compares, with
    bound None for the bound 1, whose radii are r_max alone (_margin).
    degree is the expansion degree N, and the series a draw builds
    itself (a model target, quasi's scale) are built at N too.
    """

    name: str
    options: dict
    prepare: Callable


SUITES = {suite.name: suite for suite in (
    Suite("subordination", {}, _prepare_subordination),
    Suite("quasi", {"m_bound": 1.5, "quasi_beta": 0.9}, _prepare_quasi),
    Suite("von-neumann", {}, _prepare_von_neumann),
    *(Suite(f"poly-{tag}", {"k": 1.0, "p": 2, **param},
            functools.partial(_prepare_poly, tag, layer))
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
