"""Radius equations for polyanalytic Bohr inequalities, solved with a
certified bracket.

Every family's equation has the shape

    w (1 - r)^m - c r + c r^(p+1) = 0,

where w is a domain weight, m the power of (1 - r), and c collects the
derivative-ratio bound k and the family's coefficient-growth constant:

    family       w        m   c           cap
    general      1        2   k*lambda    1/(1 + 2 lambda)
    omega-gamma  1+gamma  2   k           (1+gamma)/(3+gamma)
    half-plane   2        2   k           1/2
    convex       1        2   k*beta      1/3
    starlike     1        3   k           1/3

FAMILIES is the single source of these facts in the code, together
with each family's parameter, its valid range and the values the radius
table sweeps; the table above is the mathematics behind it.
_factor_terms is the single definition of the equation: from a FAMILIES
row it builds the strictly decreasing factor q below, with the family's
exact coefficients (Fraction) or their floats.  The solver's bisection
and proof read it, and radius_poly_eval is its view (1 - r) q(r).

p is an integer >= 2, or math.inf for the limiting equation with the
r^(p+1) term absent (r^inf evaluates to exactly 0.0 on (0, 1), so no
special casing is needed).  The usable radius is min(root, cap): the
cap encodes where the underlying single-layer inequality is available,
and binds whenever the polynomial root lands beyond it.

Uniqueness of the root.  Since c r - c r^(p+1) = c r (1 - r^p),

    w (1 - r)^m - c r (1 - r^p) = (1 - r) q(r),
    q(r) = w (1 - r)^(m-1) - c r (1 + r + ... + r^(p-1)).

For c > 0, q is strictly decreasing on [0, 1]: (1 - r)^(m-1) does not
increase (m >= 2) and c r (1 + ... + r^(p-1)) strictly increases.  As
q(0) = w > 0 and q(1) = -c p < 0, q has exactly one root in (0, 1), and
it is the equation's only root in [0, 1); the factor 1 - r contributes
only the spurious root r = 1.  For p = inf the equation itself,
w (1 - r)^m - c r, decreases strictly from w to -c.  The displayed
variant (1 - r)^2 - lambda r - lambda r^(p+1) (statement_form) decreases
strictly from 1 to below 0 for lambda > 0.  When c (or lambda) is 0 the
left side is w (1 - r)^m > 0 on [0, 1) and there is no root.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from fractions import Fraction

import numpy as np

from .series import RInterval

__all__ = [
    "FAMILIES",
    "FAMILY_TAGS",
    "RadiusFamily",
    "RootResult",
    "general_sc",
    "omega_gamma",
    "half_plane",
    "convex_sub",
    "starlike_sub",
    "radius_poly_eval",
    "solve_radius",
    "root_result_to_json",
]


@dataclasses.dataclass(frozen=True)
class FamilySpec:
    """One radius family: w, m, c / k and cap as functions of its
    parameter (the columns of the table above), the parameter values the
    radius table sweeps, and the parameter itself: its RadiusFamily
    attribute, report label, valid range and the error for a value
    outside it (all None for a family without one).  weight and coeff
    are generic in the number type, so a Fraction parameter gives the
    exact coefficient and a float one its correctly rounded value."""

    weight: Callable
    exponent: int
    coeff: Callable
    cap: Callable
    sweep: tuple = (None,)
    attr: str | None = None
    label: str | None = None
    valid: Callable | None = None
    error: str | None = None


FAMILIES = {
    "general": FamilySpec(lambda x: 1, 2, lambda x: x, lambda x: 1.0 / (1.0 + 2.0 * x),
                          (0.5, 1.0), "lam", "lambda", lambda x: 0.0 <= x < math.inf,
                          "general family needs a finite lambda >= 0"),
    "omega-gamma": FamilySpec(lambda x: 1 + x, 2, lambda x: 1, lambda x: (1.0 + x) / (3.0 + x),
                              (0.0, 0.25, 0.5), "gamma", "gamma", lambda x: 0.0 <= x < 1.0,
                              "omega-gamma family needs gamma in [0, 1)"),
    "half-plane": FamilySpec(lambda x: 2, 2, lambda x: 1, lambda x: 0.5),
    "convex": FamilySpec(lambda x: 1, 2, lambda x: x, lambda x: 1.0 / 3.0,
                         (0.5, 1.0), "beta", "beta", lambda x: 0.0 < x < math.inf,
                         "convex family needs a finite beta > 0"),
    "starlike": FamilySpec(lambda x: 1, 3, lambda x: 1, lambda x: 1.0 / 3.0),
}
FAMILY_TAGS = tuple(FAMILIES)


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
    """One instance of a radius equation; build via the constructors
    general_sc, omega_gamma, half_plane, convex_sub, starlike_sub."""

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


def general_sc(lam: float, k: float = 1.0, p=2) -> RadiusFamily:
    """Simply connected domain with coefficient-growth constant lambda."""
    return RadiusFamily("general", k=k, p=p, lam=lam)


def omega_gamma(gamma: float, k: float = 1.0, p=2) -> RadiusFamily:
    """The slit-widened disk scale Omega_gamma, gamma in [0, 1)."""
    return RadiusFamily("omega-gamma", k=k, p=p, gamma=gamma)


def half_plane(k: float = 1.0, p=2) -> RadiusFamily:
    """Shifted half-plane variant (weight 2)."""
    return RadiusFamily("half-plane", k=k, p=p)


def convex_sub(beta: float, k: float = 1.0, p=2) -> RadiusFamily:
    """Base layer subordinate to a convex map with derivative norm beta."""
    return RadiusFamily("convex", k=k, p=p, beta=beta)


def starlike_sub(k: float = 1.0, p=2) -> RadiusFamily:
    """Base layer subordinate to a normalized starlike map."""
    return RadiusFamily("starlike", k=k, p=p)


def radius_poly_eval(fam: RadiusFamily, r, *, statement_form: bool = False):
    """Left-hand side of the family's radius equation at r (scalar or array).

    A view of _factor_terms, the equation's one definition: (1 - r) q(r)
    for finite p, and the decreasing function itself for p = inf and for
    statement_form.

    statement_form selects the historically displayed variant of the
    general equation, (1-r)^2 - lambda r - lambda r^(p+1); it omits k
    and flips the sign of the tail term.  The default form is the one
    the underlying layer-by-layer estimate actually produces; the
    variant is kept only for comparison and refuses other families.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("radius equation is evaluated on [0, 1]")
    terms, _ = _factor_terms(fam, statement_form, float)
    whole = fam.p == math.inf or statement_form

    def value(x):
        a, b, n = terms(x)
        return (a + b * x ** n) * (1.0 if whole else 1.0 - x)

    out = np.array([value(x) for x in r.ravel().tolist()]).reshape(r.shape)
    return out if out.ndim else float(out)


@dataclasses.dataclass(frozen=True)
class RootResult:
    """Outcome of solve_radius: the certified bracket (or None when the
    equation has no root to find), the midpoint root, and the usable
    radius min(root, family.cap)."""

    family: RadiusFamily
    bracket: RInterval | None
    root: float | None
    radius: float

    @property
    def binding(self) -> str:
        """Which constraint determines the radius: 'root' or 'cap'."""
        return "root" if self.root is not None and self.root < self.family.cap else "cap"


def _factor_terms(fam: RadiusFamily, statement_form: bool, num):
    """The function r -> (a, b, n) with a + b r^n the strictly decreasing
    function on [0, 1] whose root is the equation's unique root in
    (0, 1): q(r) for finite p, the equation itself for p = inf and for
    statement_form; and the coefficient c, whose vanishing leaves no
    root.  This is the single definition of every family's equation;
    the solver's float bisection and exact proof and radius_poly_eval
    all read it.  num (float, or Fraction for exact values) converts r
    and the family's parameters, so the exact form has the family's
    exact coefficients w and c = k * coeff; r^n is left to the caller."""
    if statement_form and fam.tag != "general":
        raise ValueError("statement_form only applies to the general family")
    spec, x = FAMILIES[fam.tag], None if fam.param is None else num(fam.param)
    w, m, c = (1, 2, x) if statement_form else (spec.weight(x), spec.exponent,
                                                   num(fam.k) * spec.coeff(x))
    p = 0 if fam.p == math.inf else int(fam.p)

    def terms(r):
        r = num(r)
        if p == 0 or statement_form:
            # the equation itself, whose r^(p+1) term is -c (statement_form) or absent
            return w * (1 - r) ** m - c * r, -c if p else 0, p + 1
        if r == 1:
            return -c * p, 0, 0
        # q(r) = w (1 - r)^(m-1) - c r (1 - r^p) / (1 - r)
        g = c * r / (1 - r)
        return w * (1 - r) ** (m - 1) - g, g, p

    return terms, c


def _power_bounds(x: Fraction, n: int, bits: int) -> tuple[int, int]:
    """Integers lo <= x^n 2^bits <= hi for x in [0, 1], by binary powering
    with every product rounded outward to a multiple of 2^-bits, so the
    cost grows with bits and log n only; lo == hi when nothing rounded."""
    lo, hi = (x.numerator << bits) // x.denominator, -(-(x.numerator << bits) // x.denominator)
    out_lo = out_hi = 1 << bits
    while n:
        if n & 1:
            out_lo, out_hi = out_lo * lo >> bits, -(-out_hi * hi >> bits)
        lo, hi, n = lo * lo >> bits, -(-hi * hi >> bits), n >> 1
    return out_lo, out_hi


def _exact_sign(terms, r: float) -> int:
    """Sign (-1, 0 or 1) of a + b r^n, with (a, b, n) = terms(r) exact
    rationals, decided exactly: r^n is enclosed on a dyadic grid that is
    refined until a + b r^n has one sign over the enclosure, at the
    latest when the enclosure is the exact power."""
    a, b, n = terms(r)
    if a == 0:
        # r is a root of the p = inf equation, so r > 0 and b r^n has the
        # sign of b, which no finite grid could resolve for huge n
        return (b > 0) - (b < 0)
    bits = 256
    while True:
        # 2^bits a_den b_den (a + b t / 2^bits) for t = lo, hi
        ends = [(a.numerator * b.denominator << bits) + a.denominator * b.numerator * t
                for t in _power_bounds(Fraction(r), n, bits)]
        if min(ends) > 0 or max(ends) < 0 or ends[0] == ends[1]:
            return (ends[0] > 0) - (ends[0] < 0)
        bits *= 2


def solve_radius(fam: RadiusFamily, tol: float = 1e-12, *,
                 statement_form: bool = False) -> RootResult:
    """Locate the unique root of the radius equation in (0, 1).

    The equation factors as (1 - r) q(r), and q decreases strictly from
    q(0) = w > 0 to q(1) = -c p < 0, so it has exactly one root in
    (0, 1) (module docstring; for p = inf and statement_form the
    equation itself decreases strictly).  Bisects [0, 1] in floats on
    that function down to a bracket of width <= tol, or to two adjacent
    floats when tol is below their spacing, then proves the endpoints
    exactly in rational arithmetic: positive at lo and negative at hi,
    or exactly zero on a zero-width bracket.  The proof encloses r^p
    between dyadic rationals of a few hundred bits, refined only until
    the sign is certain, so its cost grows with log p rather than with
    the 53 p bits of the exact power.  The proof reads the family's
    exact coefficients, so it holds for the equation itself, not for
    its float-rounded coefficients.  If a float sign decision was wrong,
    the bisection is repeated with exact decisions.  The root is the
    bracket's midpoint.  When the exact coefficient c vanishes the
    equation has no root in (0, 1) (the left side stays positive), and
    the radius is the cap alone.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must lie in (0, 0.5)")
    exact_terms, c = _factor_terms(fam, statement_form, Fraction)
    if c == 0:
        return RootResult(fam, None, None, fam.cap)
    float_terms, _ = _factor_terms(fam, statement_form, float)

    def approx(r):
        a, b, n = float_terms(r)
        return a + b * r ** n

    def exact(r):
        return _exact_sign(exact_terms, r)

    for f in (approx, exact):
        lo, hi = 0.0, 1.0
        while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
            value = f(mid)
            lo, hi = (mid, hi) if value > 0 else (lo, mid) if value < 0 else (mid, mid)
        if exact(lo) == 0 if lo == hi else exact(lo) > 0 > exact(hi):
            break
    root = 0.5 * (lo + hi)
    return RootResult(fam, RInterval(lo, hi), root, min(root, fam.cap))


def root_result_to_json(res: RootResult) -> dict:
    """Encode as {"family", "root", "bracket", "cap", "radius"} with the
    bracket as a [lo, hi] pair (null when no root was bracketed)."""
    return {
        "family": res.family.describe(),
        "root": res.root,
        "bracket": None if res.bracket is None else [res.bracket.lo, res.bracket.hi],
        "cap": res.family.cap,
        "radius": res.radius,
        "binding": res.binding,
    }
