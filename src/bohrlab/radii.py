"""Radius equations for polyanalytic Bohr inequalities, solved with a
certified bracket.

Every family's equation has the shape

    w (1 - r)^m - c r + (1 - k) c r^2 + k c r^(p+1) = 0,

where w is a domain weight, m the power of (1 - r), c the family's
coefficient-growth constant and k the derivative-ratio bound:

    family       w        m   c         cap
    general      1        2   lambda    1/(1 + 2 lambda)
    omega-gamma  1+gamma  2   1         (1+gamma)/(3+gamma)
    half-plane   2        2   1         1/2
    convex       1        2   beta      1/3
    starlike     1        3   1         1/3

It is the layered sum set to 1.  The base layer's Bohr sum is at most
B(r) = c r / (w (1 - r)^(m-1)), and each of the p - 1 higher layers
carries at most k B(r), at weight r^l, so the layered sum is at most

    B(r) (1 + k (r - r^p) / (1 - r)),

with equality when the base layer attains B(r) and every ratio is k I.
Clearing denominators gives w (1 - r)^m - c r (1 - r) - k c r (r - r^p),
the equation above: the base layer carries c, the higher layers k c.
At k = 1 it is w (1 - r)^m - c r + c r^(p+1).

FAMILIES is the single source of these facts in the code, together
with each family's parameter, its valid range and the values the radius
table sweeps; the table above is the mathematics behind it.
_factor_terms is the single definition of the equation: from a FAMILIES
row it builds the family's exact coefficients as integers over a power
of two (every parameter is a float, so they are dyadic rationals).
The solver proves its bracket with them in integer arithmetic, and its
float Newton estimate and radius_poly_eval read them rounded once each
(_float_equation).

p is an integer >= 2, or math.inf for the limiting equation with the
r^(p+1) term absent (r^inf evaluates to exactly 0.0 on (0, 1), so no
special casing is needed).  The usable radius is min(root, cap): the
cap encodes where the underlying single-layer inequality is available,
and binds whenever the polynomial root lands beyond it.

Uniqueness of the root.  Since r - r^p = r (1 - r) (1 + r + ... + r^(p-2)),

    w (1 - r)^m - c r (1 - r) - k c r (r - r^p) = (1 - r) q(r),
    q(r) = w (1 - r)^(m-1) - c r - k c r^2 (1 + r + ... + r^(p-2)),

and for p = inf, where r - r^p is r,

    q(r) = w (1 - r)^(m-1) - c r - k c r^2 / (1 - r)      on [0, 1).

For c > 0, q is strictly decreasing: (1 - r)^(m-1) does not increase
(m >= 2), c r strictly increases and the k term does not decrease.  As
q(0) = w > 0, and q(1) = -c (1 + k (p - 1)) < 0 (for p = inf, q tends
to -c at k = 0 and to -inf at k > 0), q has exactly one root in (0, 1),
and it is the equation's only root in [0, 1); the factor 1 - r
contributes only the spurious root r = 1.  On (0, 1) the equation has
the sign of q, which is all the solver reads.  The displayed variant
(1 - r)^2 - lambda r - lambda r^(p+1) (statement_form) decreases
strictly from 1 to below 0 for lambda > 0.  When c (or lambda) is 0 the
left side is w (1 - r)^m > 0 on [0, 1) and there is no root; k = 0
leaves the base layer, whose equation (1 - r) (w (1 - r)^(m-1) - c r)
has a root.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable

import numpy as np

__all__ = [
    "FAMILIES",
    "FAMILY_TAGS",
    "RadiusFamily",
    "RootResult",
    "radius_poly_eval",
    "solve_radius",
    "radius_table",
    "root_result_to_json",
]


@dataclasses.dataclass(frozen=True)
class FamilySpec:
    """One radius family: w, m, c and cap as functions of its
    parameter x (the columns of the table above), the parameter values
    the radius table sweeps, and the parameter itself: its RadiusFamily
    attribute, report label, valid range and the error for a value
    outside it (all None for a family without one).  weight and coeff
    are affine in x, given as the integer pair (u, v) of u + v x, so
    the solver forms them exactly from a float x."""

    weight: tuple[int, int]
    exponent: int
    coeff: tuple[int, int]
    cap: Callable
    sweep: tuple = (None,)
    attr: str | None = None
    label: str | None = None
    valid: Callable | None = None
    error: str | None = None


FAMILIES = {
    # 1/(1 + 2 lambda), written so that it stays positive when 2 lambda overflows
    "general": FamilySpec((1, 0), 2, (0, 1), lambda x: 0.5 / (0.5 + x),
                          (0.5, 1.0), "lam", "lambda", lambda x: 0.0 <= x < math.inf,
                          "general family needs a finite lambda >= 0"),
    "omega-gamma": FamilySpec((1, 1), 2, (1, 0), lambda x: (1.0 + x) / (3.0 + x),
                              (0.0, 0.25, 0.5), "gamma", "gamma", lambda x: 0.0 <= x < 1.0,
                              "omega-gamma family needs gamma in [0, 1)"),
    "half-plane": FamilySpec((2, 0), 2, (1, 0), lambda x: 0.5),
    "convex": FamilySpec((1, 0), 2, (0, 1), lambda x: 1.0 / 3.0,
                         (0.5, 1.0), "beta", "beta", lambda x: 0.0 < x < math.inf,
                         "convex family needs a finite beta > 0"),
    "starlike": FamilySpec((1, 0), 3, (1, 0), lambda x: 1.0 / 3.0),
}
FAMILY_TAGS = tuple(FAMILIES)

# Every dyadic of [0, 2^(e+1)) through level this - e is a float, so
# solve_radius places a Newton estimate below 2^e in a cell of at most
# that level.
_EXACT_LEVELS = 52
# _newton_root gives up after this many steps.  For a tiny c the root
# lies within float resolution of 1, where the float equation is w (1 - r)^m
# with a root of multiplicity m there; Newton then gains only a factor
# (m - 1) / m a step, so at m = 3 (starlike) it takes about 91 steps from
# r = 0 to come within 2^-53 of 1.
_NEWTON_STEPS = 128


def _check_p(p) -> float:
    try:
        p = float(p)
    except OverflowError:
        raise ValueError("order p is too large for a float; use math.inf for the limit") from None
    if p == math.inf:
        return p
    if p != int(p) or p < 2:
        raise ValueError("order p must be an integer >= 2 or math.inf")
    return p


@dataclasses.dataclass(frozen=True)
class RadiusFamily:
    """One instance of a radius equation: a FAMILIES tag, ratio bound k,
    order p and the family's own parameter (lam, gamma or beta; none for
    half-plane and starlike), e.g. RadiusFamily("convex", k=0.5, beta=2.0)."""

    tag: str
    k: float = 1.0
    p: float = 2.0
    lam: float | None = None
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        own = FAMILIES.get(self.tag)
        if own is None:
            raise ValueError(f"unknown family tag {self.tag!r}")
        k = float(self.k)
        if not 0.0 <= k <= 1.0:
            raise ValueError("ratio bound k must lie in [0, 1]")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", _check_p(self.p))
        for tag, spec in FAMILIES.items():
            if spec is own and spec.attr:
                value = getattr(self, spec.attr)
                if value is None or not spec.valid(value):
                    raise ValueError(spec.error)
                object.__setattr__(self, spec.attr, float(value))
            elif spec.attr and getattr(self, spec.attr) is not None:
                raise ValueError(f"{spec.label} only applies to the {tag} family")

    @property
    def param(self) -> float | None:
        """The family's own parameter (None for half-plane and starlike)."""
        attr = FAMILIES[self.tag].attr
        return getattr(self, attr) if attr else None

    @property
    def cap(self) -> float:
        """Largest radius the family's single-layer inequality covers."""
        return FAMILIES[self.tag].cap(self.param)

    def describe(self) -> dict:
        """Tag plus the parameters that apply, for reports."""
        out = {"tag": self.tag, "k": self.k, "p": "inf" if self.p == math.inf else int(self.p)}
        if self.param is not None:
            out[FAMILIES[self.tag].label] = self.param
        return out


def radius_poly_eval(fam: RadiusFamily, r):
    """Left-hand side of the family's radius equation at r (scalar or
    array) in [0, 1]; nan is rejected like any other r outside it.

    A view of _factor_terms, the equation's one definition, in floats
    (_float_equation).
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(~((r >= 0.0) & (r <= 1.0))):
        raise ValueError("radius equation is evaluated on [0, 1]")
    f = _float_equation(_factor_terms(fam.tag, fam.param, fam.k, fam.p))[0]
    out = np.array([f(x) for x in r.ravel().tolist()]).reshape(r.shape)
    return out if out.ndim else float(out)


@dataclasses.dataclass(frozen=True)
class RootResult:
    """Outcome of solve_radius: the certified bracket (lo, hi) (or None
    when the equation has no root to find), the midpoint root, and the
    usable radius min(root, family.cap)."""

    family: RadiusFamily
    bracket: tuple[float, float] | None
    root: float | None
    radius: float

    @property
    def binding(self) -> str:
        """Which constraint determines the radius: 'root' or 'cap'."""
        return "root" if self.root is not None and self.root < self.family.cap else "cap"


def _dyadic(x: float) -> tuple[int, int]:
    """(N, e) with x = N / 2^e exactly, for a finite float x >= 0."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _factor_terms(tag: str, x: float | None, k: float, p, statement_form: bool = False) -> tuple:
    """The equation of family tag with parameter x (None for a family
    without one), ratio bound k and order p,

        w (1 - r)^m - c r + a r^2 + b r^(p+1),

    with its exact coefficients, as integers (W, C, A, B, s, m, p): w =
    W / 2^s, c = C / 2^s, a = A / 2^s and b = B / 2^s, where a = (1 - k) c
    and b = k c (default form) or a = 0 and b = -c (statement_form), and
    p = 0 whenever b = 0 (p = inf, or k = 0), as the term is then absent.
    This is the single definition of every family's equation, read from
    its one FAMILIES row: every parameter is a float, so w = 1 + gamma,
    c = lambda and k c are dyadic rationals, formed here without
    rounding.  radius_table keys its brackets by the tuple.  The
    solver's exact proof, its Newton estimate and radius_poly_eval
    (_float_equation) all read it; no root exists when C == 0."""
    if statement_form and tag != "general":
        raise ValueError("statement_form only applies to the general family")
    x, e = _dyadic(x or 0.0)  # the parameter is x / 2^e
    if statement_form:
        W, C, A, B, m, s = 1 << e, x, 0, -x, 2, e
    else:
        spec = FAMILIES[tag]
        (w0, w1), (c0, c1) = spec.weight, spec.coeff
        n, ek = _dyadic(k)  # k is n / 2^ek
        c = (c0 << e) + c1 * x
        W, C, A, B = ((w0 << e) + w1 * x) << ek, c << ek, ((1 << ek) - n) * c, n * c
        m, s = spec.exponent, e + ek
    if p == math.inf:
        B = 0
    return W, C, A, B, s, m, 0 if B == 0 else int(p)


def _float_equation(terms: tuple) -> tuple[Callable, Callable]:
    """The equation w (1 - r)^m - c r + a r^2 + b r^(p+1) of _factor_terms
    in floats, and its derivative.  Its coefficients are the exact ones,
    each rounded once (int / int division rounds correctly).  On (0, 1)
    the equation has the sign of q (module docstring), which is all the
    solver's Newton estimate reads."""
    W, C, A, B, s, m, p = terms
    w, c, a, b = (v / (1 << s) for v in (W, C, A, B))
    return (lambda r: w * (1 - r) ** m - c * r + a * r * r + b * r ** (p + 1),
            lambda r: -m * w * (1 - r) ** (m - 1) - c + 2 * a * r + (p + 1) * b * r ** p)


def _newton_root(f: Callable, slope: Callable, tiny: float) -> float:
    """A float estimate of the root of f in (0, 1): Newton's method from
    r = 0, safeguarded by a sign bracket [lo, hi] (f(lo) > 0, and f(hi)
    < 0 or hi = 1) that every evaluation narrows; a step that leaves the
    bracket, or a slope that is not negative, bisects it instead.  Ends
    with the first Newton step shorter than tiny, or after _NEWTON_STEPS
    evaluations on the last iterate.  For b >= 0 the
    equation is convex and decreasing up to its root, so the iterates
    rise monotonically to it in a handful of steps."""
    lo, hi, r = 0.0, 1.0, 0.0
    for _ in range(_NEWTON_STEPS):
        value, d = f(r), slope(r)
        if value > 0:
            lo = r
        elif value < 0:
            hi = r
        else:
            return r
        new = r - value / d if d < 0 else math.nan  # nan: bisect
        if abs(new - r) <= tiny:
            return new
        r = new if lo < new < hi else 0.5 * (lo + hi)
    return r


def _power_bounds(num: int, e: int, n: int, bits: int) -> tuple[int, int]:
    """Integers lo <= x^n 2^bits <= hi for x = num / 2^e in [0, 1], with
    lo == hi exactly when x^n 2^bits is an integer.  When the exact power
    num^n / 2^(e n) has at most 4 bits bits it is formed and rounded
    once; a longer one is enclosed by binary powering with every product
    rounded outward to a multiple of 2^-bits, so the cost grows with
    bits and log n only."""
    if e * n <= 4 * bits:
        top = num ** n << bits
        return top >> e * n, -(-top >> e * n)
    lo, hi = (num << bits) >> e, -(-(num << bits) >> e)
    out_lo = out_hi = 1 << bits
    while n:
        if n & 1:
            out_lo, out_hi = out_lo * lo >> bits, -(-out_hi * hi >> bits)
        lo, hi, n = lo * lo >> bits, -(-hi * hi >> bits), n >> 1
    return out_lo, out_hi


def _exact_sign(a: int, b: int, num: int, e: int, n: int) -> int:
    """Sign (-1, 0 or 1) of a + b x^n for integers a, b and x = num / 2^e
    in [0, 1], decided exactly: x^n is enclosed on a dyadic grid that is
    refined until a + b x^n has one sign over the enclosure, at the
    latest when the enclosure is the exact power."""
    if a == 0 and num:
        # x > 0, so b x^n has the sign of b, which no finite grid could
        # resolve for huge n (x is then a root of the p = inf equation)
        return (b > 0) - (b < 0)
    bits = 256
    while True:
        ends = [(a << bits) + b * t for t in _power_bounds(num, e, n, bits)]
        if min(ends) > 0 or max(ends) < 0 or ends[0] == ends[1]:
            return (ends[0] > 0) - (ends[0] < 0)
        bits *= 2


def _equation_sign(terms: tuple, r: float) -> int:
    """Sign (-1, 0 or 1) of q (module docstring) at a float r in [0, 1],
    decided exactly from the integer coefficients of _factor_terms (see
    _bracket)."""
    W, C, A, B, s, m, p = terms
    if r == 1:
        # q(1) < 0, and the statement form is -2 c there
        return -1 if C else 0
    num, e = _dyadic(r)
    return _exact_sign(W * ((1 << e) - num) ** m - (C * num << e * (m - 1))
                       + (A * num * num << e * (m - 2)), B << e * m, num, e, p + 1)


def _bracket(terms: tuple, tol: float) -> tuple[float, float] | None:
    """The certified bracket (lo, hi) of the root in (0, 1) of the
    equation with the exact coefficients terms (_factor_terms), or None
    when there is no root.

    The equation factors as (1 - r) q(r), and q decreases strictly from
    q(0) = w > 0 to below 0 at 1, so it has exactly one root in (0, 1)
    (module docstring; the statement form decreases strictly itself).
    The bracket returned is the one a bisection of [0, 1] on the exact
    sign of q reaches: width <= tol, or two adjacent floats when tol is
    below their spacing, with endpoints proved exactly: positive at lo
    and negative at hi, or exactly zero on a zero-width bracket.  It
    depends on terms and tol alone.

    The proof decides the sign of the equation at a float r = N / 2^e,
    which on (0, 1) is the sign of q, in integers: with the family's
    exact coefficients w = W / 2^s, c = C / 2^s, a = A / 2^s and
    b = B / 2^s (_factor_terms), 2^(s + e m) times the equation is

        W (2^e - N)^m - C N 2^(e (m-1)) + A N^2 2^(e (m-2)) + B 2^(e m) r^(p+1),

    and r^(p+1) is formed exactly when it has at most 4 * 256 bits (a
    table row's has at most 9 * 40), else enclosed between integers over
    2^256, refined only until the sign is certain, so the cost grows
    with log p rather than with the 53 p bits of the exact power.  Two
    cases need no power: at r = 1 the sign is that of q(1) < 0, and
    where the first three terms cancel exactly it is the sign of B.  The
    proof reads the exact coefficients, so it holds for the equation
    itself, not for its float-rounded coefficients.

    One exact walk.  Bisecting [0, 1] with exact decisions walks down
    the dyadic cells [n, n + 1] / 2^j that hold the root and stops at
    level J, the least j with 2^-j <= tol (or on two adjacent floats
    when their spacing is wider), or earlier on the root itself when it
    is one of the midpoints.  That walk is the one run here, and one
    proven sign decides every midpoint on its side: q decreases
    strictly, so q(pos) > 0 gives q > 0 at every r <= pos, and
    q(neg) < 0 gives q < 0 at every r >= neg.  The walk therefore
    computes the sign only of a midpoint strictly between pos and neg,
    which start as 0 and 1 (q(0) = w > 0, q(1) < 0).  A safeguarded
    Newton iteration in floats (_newton_root) estimates the root, and a
    doubling search proves signs next to it among the dyadics of level
    L = min(J, 52 - e), where the estimate lies in [2^(e-1), 2^e) (e = 0
    for an estimate of 0): the level of the float spacing there, less
    one, so that every dyadic of level L below 2^(e+1) is a float.  It
    signs first the ends of the level-L cell that holds the estimate,
    then, beyond an end that is refused, the points 2, 4, 8, ... cells
    from the cell's other end, until the sign changes or a point leaves
    the floats of level L.  When the search proves the two ends of one
    level-L cell, no midpoint of a coarser level is in doubt and the
    walk starts in that cell: for L = J the cell is the bracket (two
    signs when the estimate is right), and for L < J the walk goes on
    inside it, for a sign or two down to adjacent floats.  A zero at a
    level-L dyadic is one of the walk's midpoints, so the walk stops
    there on (root, root).  The estimate chooses which signs are
    computed, never a decision, so the bracket is that of the all-exact
    bisection whatever the floats do.  When the exact coefficient c
    vanishes the equation has no root in (0, 1) (the left side stays
    positive).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must lie in (0, 0.5)")
    if terms[1] == 0:  # c = 0
        return None
    tol_level = 1 - math.frexp(tol)[1]  # J
    # The step that ends the iteration is below 2^-(j + 4), j = max(min(J,
    # 52), 26), and Newton's error after it is about its square, below
    # float resolution, so that roots near a cell end are placed as well
    estimate = _newton_root(*_float_equation(terms),
                            math.ldexp(1.0, -4 - max(min(tol_level, _EXACT_LEVELS), 26)))
    # The estimate lies below 2^e (e <= 0), where floats are 2^(e - 53)
    # apart: L = min(J, 52 - e).  Every dyadic of level L below 2^(53 - L),
    # which is at least 2^(e + 1), is a float.
    level = min(tol_level, _EXACT_LEVELS - min(math.frexp(estimate)[1], 0))
    # The doubling search: q > 0 at pos and q < 0 at neg.  It proves the
    # ends of the level-L cell [start, start + cell] that holds the
    # estimate, low end first (start is at least 2^-L), and beyond a
    # refused end the points 2, 4, 8, ... cells from the other end, until
    # the sign changes or a point reaches 2^(53 - L).  The points it signs
    # are dyadics of level L in (0, 2^(53 - L)), so the sums give them
    # exactly.
    cell, top = math.ldexp(1.0, -level), math.ldexp(1.0, 53 - level)
    start = min(max(math.floor(estimate / cell), 1), (1 << level) - 1) * cell
    pos, neg, r = 0.0, 1.0, start
    while pos < r < neg and r < top:
        sign = _equation_sign(terms, r)
        if sign > 0:
            pos, r = r, r + cell if r == start else 2 * r - start
        elif sign < 0:
            neg, r = r, 2 * r - start - cell
        else:
            pos = neg = r
    lo, hi = (pos, neg) if neg - pos <= cell else (0.0, 1.0)
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        sign = 1 if mid <= pos else -1 if mid >= neg else _equation_sign(terms, mid)
        if sign > 0:
            lo = mid
        elif sign < 0:
            hi = mid
        else:
            lo = hi = mid
    return lo, hi


def solve_radius(fam: RadiusFamily, tol: float = 1e-12, *,
                 statement_form: bool = False) -> RootResult:
    """Locate the unique root of the radius equation in (0, 1): the
    certified bracket of _bracket, its midpoint as the root, and the
    radius min(root, cap); when the exact coefficient c vanishes there
    is no root, and the radius is the cap alone.  statement_form solves
    the general family's historically displayed equation instead (module
    docstring), for comparison."""
    bracket = _bracket(_factor_terms(fam.tag, fam.param, fam.k, fam.p, statement_form), tol)
    if bracket is None:
        return RootResult(fam, None, None, fam.cap)
    root = 0.5 * (bracket[0] + bracket[1])
    return RootResult(fam, bracket, root, min(root, fam.cap))


# The (k, p) grid of radius_table.
_TABLE_KS = (0.0, 0.25, 0.5, 1.0)
_TABLE_PS = (2, 3, 5, 8)


def radius_table(families=FAMILY_TAGS, tol: float = 1e-12) -> list:
    """The radius table: for every k in 0, 1/4, 1/2, 1 and every p in
    2, 3, 5, 8, one row per family of families (FAMILIES tags, in that
    order) and parameter value the family sweeps.

    A row is the dict {"family", "k", "p", "lambda", "gamma", "beta"
    (None where the parameter is another family's), "root",
    "bracket_lo", "bracket_hi" (None when there is no root), "cap",
    "radius", "binding"} with the values solve_radius gives for its
    family.  Each row is built from its FAMILIES row alone, and each
    distinct equation is solved once: rows with one _factor_terms tuple
    share one _bracket, which depends on the tuple and tol alone.  Rows
    coincide where their equations do: general lambda and convex beta
    at one value, both at 1 with omega-gamma at gamma 0, and at k = 0,
    where the r^(p+1) term vanishes, every p.  The full table has 144
    rows and 78 distinct equations.  The brackets are kept for this
    call only.
    """
    labels = {spec.label: None for spec in FAMILIES.values() if spec.attr}
    brackets, rows = {}, []
    for k, p, tag in itertools.product(_TABLE_KS, _TABLE_PS, families):
        spec = FAMILIES[tag]
        for x in spec.sweep:
            terms = _factor_terms(tag, x, k, p)
            if terms not in brackets:
                brackets[terms] = _bracket(terms, tol)
            bracket, cap = brackets[terms], spec.cap(x)
            root = None if bracket is None else 0.5 * (bracket[0] + bracket[1])
            radius = cap if root is None else min(root, cap)
            rows.append({
                "family": tag,
                "k": k,
                "p": p,
                **labels,
                **({spec.label: x} if spec.attr else {}),
                "root": root,
                "bracket_lo": None if bracket is None else bracket[0],
                "bracket_hi": None if bracket is None else bracket[1],
                "cap": cap,
                "radius": radius,
                "binding": "root" if radius < cap else "cap",
            })
    return rows


def root_result_to_json(res: RootResult) -> dict:
    """Encode as {"family", "root", "bracket", "cap", "radius"} with the
    bracket as a [lo, hi] pair (null when no root was bracketed)."""
    return {
        "family": res.family.describe(),
        "root": res.root,
        "bracket": None if res.bracket is None else list(res.bracket),
        "cap": res.family.cap,
        "radius": res.radius,
        "binding": res.binding,
    }
