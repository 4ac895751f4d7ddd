"""Radius equations: evaluation, certified bisection, caps, monotonicity."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import radii
from bohrlab.harness import emit_radius_table
from bohrlab.radii import (
    FAMILIES,
    FAMILY_TAGS,
    RadiusFamily,
    radius_poly_eval,
    root_result_to_json,
    solve_radius,
)
from bohrlab.radii import (
    _equation_sign,
    _exact_sign,
    _factor_terms,
    _float_equation,
    _power_bounds,
)
from bohrlab.series import majorant, scalar_series
from bohrlab.zoo import PolyanalyticFn

SQRT2M1 = math.sqrt(2.0) - 1.0
# smallest positive root of (1 - r)^3 = r, from an independent
# polynomial-root computation (companion-matrix eigenvalues)
STARLIKE_LIMIT_ROOT = 0.3176721961719807
# root in (0, 1) of (1 - r)^3 - r + r^6, the starlike family at k = 1,
# p = 5 (companion-matrix eigenvalues, good to about 1e-16)
STARLIKE_P5_ROOT = 0.31810467471166504
# orders whose exact power r^p has millions to billions of bits
HUGE_ORDERS = (10 ** 6, 10 ** 9)


def test_family_validation():
    with pytest.raises(ValueError):
        RadiusFamily("nope")
    with pytest.raises(ValueError):
        RadiusFamily("general", lam=-0.5)
    with pytest.raises(ValueError):
        RadiusFamily("general", k=1.5, lam=1.0)
    with pytest.raises(ValueError):
        RadiusFamily("omega-gamma", gamma=1.0)
    with pytest.raises(ValueError):
        RadiusFamily("convex", beta=0.0)
    with pytest.raises(ValueError):
        RadiusFamily("starlike", k=1.0, p=1)
    with pytest.raises(ValueError):
        RadiusFamily("starlike", k=1.0, p=2.5)
    with pytest.raises(ValueError):
        RadiusFamily("starlike", beta=1.0)


def test_family_rejects_non_finite_parameters():
    # the solver proves its bracket in exact rationals, which need finite inputs
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RadiusFamily("general", lam=bad)
        with pytest.raises(ValueError):
            RadiusFamily("convex", beta=bad)


def test_order_too_large_for_a_float_is_a_value_error():
    # float(10**400) overflows; an OverflowError would escape the CLI's error handling
    with pytest.raises(ValueError, match="too large"):
        RadiusFamily("starlike", k=1.0, p=10 ** 400)


def test_every_sweep_value_builds_a_family():
    for tag, spec in FAMILIES.items():
        for x in spec.sweep:
            fam = RadiusFamily(tag, **({spec.attr: x} if spec.attr else {}))
            assert fam.param == x
            assert 0.0 < fam.cap < 1.0


def test_eval_known_values():
    fam = RadiusFamily("general", k=1.0, p=2, lam=1.0)
    assert radius_poly_eval(fam, 0.0) == 1.0
    assert radius_poly_eval(fam, 1.0) == 0.0
    # (1 + gamma)(1-r)^2 - r + r^3 at gamma=0, r=0.4: 0.36 - 0.4 + 0.064
    fam = RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.0)
    assert radius_poly_eval(fam, 0.4) == pytest.approx(0.024, abs=1e-15)
    # half-plane doubles the weight
    assert radius_poly_eval(RadiusFamily("half-plane", k=1.0, p=2), 0.0) == 2.0
    # starlike cubes the (1 - r) factor
    assert radius_poly_eval(RadiusFamily("starlike", k=1.0, p=2), 0.5) == pytest.approx(
        0.125 - 0.5 + 0.125, abs=1e-15
    )


def test_eval_vectorized_and_validated():
    fam = RadiusFamily("convex", k=1.0, p=3, beta=1.0)
    rs = np.array([0.0, 0.5, 1.0])
    vals = radius_poly_eval(fam, rs)
    assert vals.shape == (3,)
    assert vals[0] == 1.0
    for bad in (1.5, -0.5, math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError):
            radius_poly_eval(fam, bad)


def test_statement_form_variant():
    fam = RadiusFamily("general", k=1.0, p=2, lam=1.0)
    # (1-r)^2 - r - r^3 at r = 0.3: 0.49 - 0.3 - 0.027
    assert _float_equation(terms(fam, True))[0](0.3) == pytest.approx(0.163, abs=1e-15)
    with pytest.raises(ValueError, match="statement_form only applies"):
        solve_radius(RadiusFamily("starlike", k=1.0, p=2), statement_form=True)
    res = solve_radius(fam, statement_form=True)
    assert res.root is not None
    # the variant's tail term is subtracted, so its root sits below the
    # default form's
    assert res.root <= solve_radius(fam).root


def test_solve_omega_gamma_zero_bracket():
    res = solve_radius(RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.0))
    lo, hi = res.bracket
    assert hi - lo <= 1e-12
    assert lo <= SQRT2M1 <= hi
    assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.binding == "cap"


def test_solve_starlike_p2_exact_third():
    # (1-r)^3 - r + r^3 factors through (1 - 3r), so the root is 1/3
    res = solve_radius(RadiusFamily("starlike", k=1.0, p=2))
    assert res.root == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert res.radius == pytest.approx(1.0 / 3.0, abs=1e-11)


def test_solve_half_plane_root_beyond_cap():
    res = solve_radius(RadiusFamily("half-plane", k=1.0, p=2))
    assert res.root == pytest.approx((math.sqrt(17.0) - 3.0) / 2.0, abs=1e-11)
    assert res.radius == 0.5
    assert res.binding == "cap"


def test_solve_limit_family():
    res = solve_radius(RadiusFamily("starlike", k=1.0, p=math.inf))
    assert res.root == pytest.approx(STARLIKE_LIMIT_ROOT, abs=1e-9)
    assert radius_poly_eval(RadiusFamily("starlike", k=1.0, p=math.inf), 0.317) > 0
    assert radius_poly_eval(RadiusFamily("starlike", k=1.0, p=math.inf), 0.318) < 0


def test_solve_no_root_when_coefficient_vanishes():
    # the coefficient c is lambda, so only the general family at lambda 0
    # has none; k = 0 drops the higher layers, not the base layer's c
    for k, p in ((1.0, 2), (0.0, 2), (0.5, 7), (1.0, math.inf)):
        fam = RadiusFamily("general", k=k, p=p, lam=0.0)
        res = solve_radius(fam)
        assert res.root is None and res.bracket is None
        assert res.radius == res.family.cap
        assert res.binding == "cap"


@pytest.mark.parametrize("p", (2, 5, math.inf))
def test_k_zero_leaves_the_base_layer_equation(p):
    # at k = 0 the equation is (1 - r) (w (1 - r)^(m-1) - c r) for every
    # p: the base layer's Bohr bound c r / (w (1 - r)^(m-1)) equals 1
    roots = {RadiusFamily("general", k=0.0, p=p, lam=0.5): 1 / 1.5,
             RadiusFamily("omega-gamma", k=0.0, p=p, gamma=0.25): 1.25 / 2.25,
             RadiusFamily("half-plane", k=0.0, p=p): 2 / 3,
             RadiusFamily("convex", k=0.0, p=p, beta=3.0): 1 / 4,
             RadiusFamily("starlike", k=0.0, p=p): (3 - math.sqrt(5)) / 2}
    for fam, root in roots.items():
        res = solve_radius(fam)
        assert res.root == pytest.approx(root, abs=1e-12)
        assert res.radius == min(res.root, fam.cap)


def layered_extremal_sum(fam, r):
    """B(r) (1 + k (r - r^p) / (1 - r)), exactly: the layered sum of the
    instance whose base layer has the Bohr sum B(r) = c r / (w (1 - r)^(m-1))
    and whose ratios are all k I, so f_l = k f_0."""
    r = Fraction(r)
    w, m, c, k = exact_coefficients(fam)
    return c * r / (w * (1 - r) ** (m - 1)) * (1 + k * (r - r ** int(fam.p)) / (1 - r))


@pytest.mark.parametrize("make", [
    lambda k, p: RadiusFamily("general", k=k, p=p, lam=0.5),
    lambda k, p: RadiusFamily("omega-gamma", k=k, p=p, gamma=0.5),
    lambda k, p: RadiusFamily("half-plane", k=k, p=p),
    lambda k, p: RadiusFamily("convex", k=k, p=p, beta=3.0),
    lambda k, p: RadiusFamily("starlike", k=k, p=p),
], ids=FAMILY_TAGS)
def test_extremal_witness_meets_the_radius(make):
    # The extremal instance's layered sum crosses 1 at the root: it is
    # below 1 at the bracket's proven low end, and just beyond the root
    # its certified lower sum, the partial sums of a scalar series with
    # the coefficients of B(r) and of its k-multiples, exceeds 1.  So the
    # root is sharp, and the sum is at most 1 (within the bracket's
    # width) at the radius min(root, cap); where the root binds (convex,
    # and starlike at k >= 0.8, p >= 3), so is the radius.
    degree = 400
    for k in (0.25, 0.5, 0.8, 1.0):
        for p in (2, 3, 8):
            fam = make(k, p)
            res = solve_radius(fam)
            lo, hi = res.bracket
            low = layered_extremal_sum(fam, lo)
            assert low < 1 or low == 1 and lo == hi  # an exact hit
            assert layered_extremal_sum(fam, res.radius) <= 1 + 1e-11
            w, m, c, _ = exact_coefficients(fam)
            n = np.arange(degree + 1)
            base = scalar_series(float(c / w) * np.where(m == 2, n > 0, n))
            fn = PolyanalyticFn((base,) + (scalar_series(k * base.coeffs[:, 0, 0]),) * (p - 1), k)
            assert majorant(fn).bohr([res.root + 1e-6])[0][0] > 1


def test_solve_bracket_certifies_sign_change():
    for fam in (RadiusFamily("general", k=0.6, p=3, lam=0.7),
                RadiusFamily("omega-gamma", k=1.0, p=4, gamma=0.4),
                RadiusFamily("half-plane", k=0.5, p=2),
                RadiusFamily("convex", k=0.9, p=5, beta=0.8),
                RadiusFamily("starlike", k=0.3, p=2)):
        res = solve_radius(fam)
        lo, hi = res.bracket
        assert radius_poly_eval(fam, lo) * radius_poly_eval(fam, hi) <= 0.0
        assert hi - lo <= 1e-12
        assert res.radius <= res.family.cap


def test_solve_tol_validation():
    with pytest.raises(ValueError):
        solve_radius(RadiusFamily("starlike", k=1.0, p=2), tol=0.0)


def test_caps():
    assert RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.0).cap == pytest.approx(1.0 / 3.0)
    assert RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.25).cap == pytest.approx(5.0 / 13.0)
    assert RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.5).cap == pytest.approx(3.0 / 7.0)
    assert RadiusFamily("half-plane", k=1.0, p=2).cap == 0.5
    assert RadiusFamily("general", k=1.0, p=2, lam=1.0).cap == pytest.approx(1.0 / 3.0)
    assert RadiusFamily("general", k=1.0, p=2, lam=0.5).cap == pytest.approx(0.5)
    assert RadiusFamily("convex", k=1.0, p=2, beta=2.0).cap == pytest.approx(1.0 / 3.0)
    assert RadiusFamily("starlike", k=1.0, p=2).cap == pytest.approx(1.0 / 3.0)


def test_general_cap_stays_positive_for_huge_lambda():
    # 1/(1 + 2 lambda) overflows in its denominator above about 9e307
    # and read 0; the cap is the same float wherever 1 + 2 lambda is finite
    for lam in (0.0, 0.3, 1.0, 7.25, 1e300, 8e307):
        assert RadiusFamily("general", lam=lam).cap == 1.0 / (1.0 + 2.0 * lam)
    fam = RadiusFamily("general", lam=1e308)
    assert fam.cap == 0.5 / 1e308 > 0
    assert solve_radius(fam).radius == fam.cap


def test_root_monotone_in_coefficient_and_order():
    def root(fam):
        return solve_radius(fam).root

    ks = (0.25, 0.5, 1.0)
    seqs = [
        [root(RadiusFamily("general", k=k, p=3, lam=1.0)) for k in ks],
        [root(RadiusFamily("general", k=1.0, p=3, lam=lam)) for lam in ks],
        [root(RadiusFamily("convex", k=1.0, p=3, beta=beta)) for beta in ks],
        [root(RadiusFamily("starlike", k=k, p=4)) for k in ks],
        [root(RadiusFamily("half-plane", k=1.0, p=p)) for p in range(2, 7)],
        [root(RadiusFamily("starlike", k=1.0, p=p)) for p in range(2, 7)],
    ]
    for seq in seqs:
        assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))


def test_json_shape():
    res = solve_radius(RadiusFamily("omega-gamma", k=0.5, p=3, gamma=0.25))
    payload = root_result_to_json(res)
    assert payload["family"]["tag"] == "omega-gamma"
    assert payload["family"]["gamma"] == 0.25
    assert payload["family"]["p"] == 3
    assert payload["bracket"][0] <= payload["root"] <= payload["bracket"][1]
    assert payload["radius"] == min(payload["root"], payload["cap"])
    limit = root_result_to_json(solve_radius(RadiusFamily("starlike", k=1.0, p=math.inf)))
    assert limit["family"]["p"] == "inf"
    none = root_result_to_json(solve_radius(RadiusFamily("general", k=1.0, p=2, lam=0.0)))
    assert none["root"] is None and none["bracket"] is None


def test_solve_large_tol_still_brackets_the_root():
    # a grid restricted to [tol, 1 - tol] = [0.4, 0.6] misses this root
    res = solve_radius(RadiusFamily("starlike", k=1.0, p=5), tol=0.4)
    lo, hi = res.bracket
    assert lo <= STARLIKE_P5_ROOT <= hi
    assert hi - lo <= 0.4


def test_solve_tiny_tol_finds_the_root_not_one():
    # the factor (1 - r) of the equation vanishes at r = 1; that zero is
    # not a root of the radius problem
    res = solve_radius(RadiusFamily("starlike", k=1.0, p=5), tol=1e-17)
    assert res.root == pytest.approx(STARLIKE_P5_ROOT, abs=1e-15)
    assert res.binding == "root"


def test_solve_tol_below_float_spacing_ends_on_adjacent_floats():
    fam = RadiusFamily("starlike", k=1.0, p=5)
    res = solve_radius(fam, tol=1e-300)
    assert res.bracket[1] == np.nextafter(res.bracket[0], 1.0)
    assert exact_factor(fam, res.bracket[0]) > 0 > exact_factor(fam, res.bracket[1])


def test_power_bounds_enclose_the_exact_power():
    for r in (0.0, 1.0, 0.5, 0.3181046747116650, 1.0 - 2.0 ** -40, 5e-324):
        x = Fraction(r)
        num, e = x.numerator, x.denominator.bit_length() - 1
        for n in (0, 1, 2, 7, 64, 1000):
            for bits in (8, 64, 256):
                lo, hi = _power_bounds(num, e, n, bits)
                exact = x ** n * 2 ** bits
                assert lo <= exact <= hi
                assert (lo == hi) == (exact.denominator == 1)
    # cost independent of n: a billionth power of a 53-bit float
    lo, hi = _power_bounds(2 ** 53 - 1, 53, 10 ** 9, 256)
    assert 0 < hi - lo <= 2 ** 40


def test_exact_sign_refines_until_certain():
    # (3/4)^300 has 600 bits, so the first 256-bit enclosure cannot tell
    # a + b (3/4)^300 = delta from 0 when |delta| = 2^-400; both sides are
    # scaled by 2^600 to integers
    power, scale = Fraction(3, 4) ** 300, 2 ** 600
    for delta, sign in ((Fraction(1, 2 ** 400), 1), (-Fraction(1, 2 ** 400), -1), (0, 0)):
        a = (delta - power) * scale
        assert a.denominator == 1
        assert _exact_sign(int(a), scale, 3, 2, 300) == sign
        assert _exact_sign(-int(a), -scale, 3, 2, 300) == -sign


def test_exact_sign_refines_from_binary_powering_to_the_exact_power(monkeypatch):
    # (3/4)^600 has 1200 bits, more than 4 * 256, so the first enclosure
    # comes from binary powering; |delta| = 2^-1100 needs the refinements
    # that form the power exactly (1200 <= 4 * 512), until it is an integer
    # on the grid at 2048 bits
    precisions = []

    def spy(num, e, n, bits):
        precisions.append(bits)
        return power_bounds(num, e, n, bits)

    power_bounds = radii._power_bounds
    monkeypatch.setattr(radii, "_power_bounds", spy)
    power, scale = Fraction(3, 4) ** 600, 2 ** 1200
    for delta, sign in ((Fraction(1, 2 ** 1100), 1), (-Fraction(1, 2 ** 1100), -1), (0, 0)):
        a = (delta - power) * scale
        assert a.denominator == 1
        precisions.clear()
        assert _exact_sign(int(a), scale, 3, 2, 600) == sign
        assert precisions == [256, 512, 1024, 2048]
        assert _exact_sign(-int(a), -scale, 3, 2, 600) == -sign


@pytest.mark.parametrize("statement_form", (False, True))
def test_solve_huge_order_next_to_an_exact_limit_root(statement_form):
    # (1 - r)^2 = r / 2 at r = 1/2, so at p = inf both forms vanish there
    # exactly, and at finite p they are +-r^(p+1) / 2 times a positive
    # factor: 2^-(p+1) away from 0, but of a known sign.
    fam = RadiusFamily("general", k=1.0, p=10 ** 9, lam=0.5)
    res = solve_radius(fam, statement_form=statement_form)
    lo, hi = res.bracket
    assert hi - lo <= 1e-12
    if statement_form:
        # s_p(1/2) = -2^-(p+2) < 0, so the root lies below 1/2
        assert hi == 0.5
        assert exact_factor(dataclasses.replace(fam, p=256), lo, True) > 0
    else:
        # q_p(1/2) = 2^-(p+1) > 0, so the root lies above 1/2
        assert lo == 0.5
        assert exact_factor(dataclasses.replace(fam, p=256), hi) < 0
    limit = solve_radius(dataclasses.replace(fam, p=math.inf), statement_form=statement_form)
    assert limit.bracket == (0.5, 0.5)


@pytest.mark.parametrize("fam, statement_form", [
    (RadiusFamily("starlike", k=1.0), False), (RadiusFamily("half-plane", k=0.5), False),
    (RadiusFamily("omega-gamma", k=1.0, gamma=0.5), False),
    (RadiusFamily("general", k=1.0, lam=1.0), True),
], ids=["starlike", "half-plane", "omega-gamma", "general-statement"])
@pytest.mark.parametrize("p", HUGE_ORDERS)
@pytest.mark.parametrize("tol", (1e-12, 1e-300))
def test_solve_huge_order_proves_its_bracket(fam, statement_form, p, tol):
    # The exact power r^p of a float has about 53 p bits, too many to form
    # here, so the sign change is checked with bounds on the order instead:
    # the factor q decreases in p towards
    # q_inf = w (1 - r)^(m-1) - c r - k c r^2 / (1 - r),
    # and the statement form s grows with p towards s_inf.  For p >= 256
    #     q_inf(r) <= q_p(r) <= q_256(r),   s_256(r) <= s_p(r) <= s_inf(r),
    # and exact_factor at p = inf is (1 - r) q_inf(r), of the sign of q_inf.
    fam = dataclasses.replace(fam, p=p)
    res = solve_radius(fam, tol, statement_form=statement_form)
    lo, hi = res.bracket
    assert lo < hi and (hi - lo <= tol or hi == np.nextafter(lo, 1.0))
    low, high = (256, math.inf) if statement_form else (math.inf, 256)
    assert exact_factor(dataclasses.replace(fam, p=low), lo, statement_form) > 0
    assert exact_factor(dataclasses.replace(fam, p=high), hi, statement_form) < 0
    # r^p is far below the float spacing here, so the bracket is the limit's
    limit = solve_radius(dataclasses.replace(fam, p=math.inf), tol, statement_form=statement_form)
    assert res.bracket == limit.bracket


# --- properties over random families ------------------------------------------

ORDERS = st.sampled_from(list(range(2, 13)) + [math.inf])
TOLS = st.sampled_from((1e-300, 1e-17, 1e-12, 1e-6, 0.4))


@st.composite
def families(draw, orders=ORDERS):
    tag = draw(st.sampled_from(FAMILY_TAGS))
    extra = {}
    if tag == "general":
        extra["lam"] = draw(st.floats(0.0, 8.0))
    elif tag == "omega-gamma":
        extra["gamma"] = draw(st.floats(0.0, 1.0, exclude_max=True))
    elif tag == "convex":
        extra["beta"] = draw(st.floats(0.0, 8.0, exclude_min=True))
    return RadiusFamily(tag, k=draw(st.floats(0.0, 1.0)), p=draw(orders), **extra)


@st.composite
def problems(draw, orders=ORDERS):
    fam = draw(families(orders))
    return fam, fam.tag == "general" and draw(st.booleans())


def exact_coefficients(fam, statement_form=False):
    """(w, m, c, k) of the equation solved, with the family's parameters
    taken exactly, so k * c is the exact product rather than its float."""
    k = Fraction(fam.k)
    if statement_form:
        return 1, 2, Fraction(fam.lam), None
    if fam.tag == "general":
        return 1, 2, Fraction(fam.lam), k
    if fam.tag == "omega-gamma":
        return 1 + Fraction(fam.gamma), 2, 1, k
    if fam.tag == "half-plane":
        return 2, 2, 1, k
    if fam.tag == "convex":
        return 1, 2, Fraction(fam.beta), k
    return 1, 3, 1, k


def exact_factor(fam, r, statement_form=False):
    """The decreasing function q whose root the solver brackets (radii's
    module docstring), in exact arithmetic with the geometric sum written
    out term by term:

        q(r) = w (1 - r)^(m-1) - c r - k c r^2 (1 + r + ... + r^(p-2)),

    or - k c r^2 / (1 - r) for p = inf, where q(1) has the sign of -c."""
    r = Fraction(r)
    finite = fam.p != math.inf
    w, m, c, k = exact_coefficients(fam, statement_form)
    if statement_form:
        return (1 - r) ** 2 - c * r - (c * r ** (int(fam.p) + 1) if finite else 0)
    if not finite:
        return -c if r == 1 else w * (1 - r) ** (m - 1) - c * r - k * c * r * r / (1 - r)
    # 1 + r + ... + r^(p-2) over the common denominator d^(p-2) of its
    # terms, so a tiny r (d up to 2^1074) needs no gcd per term
    n, d, p = r.numerator, r.denominator, int(fam.p)
    top, d_power = 0, 1
    for _ in range(p - 1):
        # top = n^j + n^(j-1) d + ... + d^j after j + 1 steps
        top, d_power = top * n + d_power, d_power * d
    return w * (1 - r) ** (m - 1) - c * r - k * c * r * r * Fraction(top, d ** (p - 2))


def terms(fam, statement_form=False):
    """The exact integer coefficients the solver reads for fam."""
    return _factor_terms(fam.tag, fam.param, fam.k, fam.p, statement_form)


def test_exact_factor_has_the_sign_of_the_equation():
    # away from the root and from r = 1 the float equation, which is
    # (1 - r) times the factor, has a sign that rounding cannot flip
    cases = [(RadiusFamily("general", k=0.6, p=3, lam=0.7), False),
             (RadiusFamily("general", k=1.0, p=4, lam=1.0), True),
             (RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.5), False),
             (RadiusFamily("half-plane", k=0.5, p=7), False),
             (RadiusFamily("convex", k=0.9, p=math.inf, beta=0.8), False),
             (RadiusFamily("starlike", k=1.0, p=5), False)]
    for fam, statement_form in cases:
        for r in (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 0.875):
            value = _float_equation(terms(fam, statement_form))[0](r)
            if abs(value) > 1e-6:
                assert (exact_factor(fam, r, statement_form) > 0) == (value > 0)


def sign(x):
    return (x > 0) - (x < 0)


# a subnormal, the float just below 1, and 1, where the default form's
# factor 1 - r vanishes
EDGE_RADII = (5e-324, 1.0 - 2.0 ** -53, 1.0)


@settings(max_examples=150, deadline=None)
@given(problems(st.one_of(st.integers(2, 256), st.just(math.inf))),
       st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_RADII)))
def test_integer_sign_agrees_with_exact_factor(problem, r):
    fam, statement_form = problem
    assert _equation_sign(terms(fam, statement_form), r) == sign(
        exact_factor(fam, r, statement_form))


@pytest.mark.parametrize("r", EDGE_RADII)
@pytest.mark.parametrize("p", (2, 5, math.inf))
def test_integer_sign_at_edge_radii(r, p):
    cases = [(RadiusFamily("general", k=0.6, p=p, lam=0.7), False),
             (RadiusFamily("general", k=1.0, p=p, lam=1.0), True),
             (RadiusFamily("omega-gamma", k=1.0, p=p, gamma=0.5), False),
             (RadiusFamily("half-plane", k=0.5, p=p), False),
             (RadiusFamily("convex", k=0.9, p=p, beta=0.8), False),
             (RadiusFamily("starlike", k=1.0, p=p), False),
             (RadiusFamily("starlike", k=0.0, p=p), False),
             (RadiusFamily("general", k=1.0, p=p, lam=0.0), True)]
    for fam, statement_form in cases:
        assert _equation_sign(terms(fam, statement_form), r) == sign(
            exact_factor(fam, r, statement_form))


def test_integer_sign_where_the_first_terms_cancel():
    # w (1 - r)^2 - c r vanishes at r = 1/2 for lambda = 1/2, k = 1, so the
    # sign is that of the tail term b r^(p+1): +, or - for statement_form
    fam = RadiusFamily("general", k=1.0, p=10 ** 9, lam=0.5)
    assert _equation_sign(terms(fam), 0.5) == 1
    assert _equation_sign(terms(fam, True), 0.5) == -1
    small = dataclasses.replace(fam, p=256)
    assert sign(exact_factor(small, 0.5)) == 1
    assert sign(exact_factor(small, 0.5, True)) == -1
    limit = dataclasses.replace(fam, p=math.inf)
    for statement_form in (False, True):
        assert _equation_sign(terms(limit, statement_form), 0.5) == 0
        assert exact_factor(limit, 0.5, statement_form) == 0


def reference_bracket(fam, tol, statement_form):
    """The solver's bisection with every midpoint decided by exact_factor."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        value = exact_factor(fam, mid, statement_form)
        lo, hi = (mid, hi) if value > 0 else (lo, mid) if value < 0 else (mid, mid)
    return lo.hex(), hi.hex()


@settings(max_examples=150, deadline=None)
@given(problems(), TOLS)
def test_bracket_is_that_of_an_exact_bisection(problem, tol):
    # the float stage only guesses: whatever it decides, the bracket
    # returned is the one exact decisions give, bit for bit
    fam, statement_form = problem
    res = solve_radius(fam, tol, statement_form=statement_form)
    if exact_coefficients(fam, statement_form)[2] == 0:
        assert res.bracket is None
    else:
        assert (res.bracket[0].hex(), res.bracket[1].hex()) == reference_bracket(
            fam, tol, statement_form)


@settings(max_examples=150, deadline=None)
@given(problems(), TOLS, st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.5, 1.0))))
def test_bracket_survives_a_wrong_newton_estimate(problem, tol, guess):
    # an estimate in the wrong cell fails the proof of the placed cell,
    # and the bisection that follows still returns the exact bracket
    fam, statement_form = problem
    with mock.patch.object(radii, "_newton_root", lambda f, slope, tiny: guess):
        res = solve_radius(fam, tol, statement_form=statement_form)
    if res.bracket is not None:
        assert (res.bracket[0].hex(), res.bracket[1].hex()) == reference_bracket(
            fam, tol, statement_form)


@pytest.mark.parametrize("guess", (0.25, 0.5 - 2.0 ** -41, 0.5, 0.5 + 2.0 ** -41, 0.75))
@pytest.mark.parametrize("tol", (0.4, 1e-12))
def test_placed_cell_with_a_zero_end_is_the_root(guess, tol):
    # the root of RadiusFamily("omega-gamma", k=1, p=2, gamma=0.5) is 1/2 exactly: a cell with 1/2
    # as an end proves it a zero at once, and from any other the search
    # and the walk reach 1/2 as a midpoint, a zero-width bracket
    fam = RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.5)
    with mock.patch.object(radii, "_newton_root", lambda f, slope, tiny: guess):
        res = solve_radius(fam, tol)
    assert res.bracket[0] == res.bracket[1] == 0.5
    assert reference_bracket(fam, tol, False) == (0.5.hex(), 0.5.hex())


def test_radius_table_proves_each_bracket_with_two_signs(monkeypatch):
    # a cost guard without timing, per distinct equation: the table's 144
    # rows hold 78 equations, each solved once; at tol 1e-12 every placed
    # cell is confirmed at once, with two exact signs (one where the root
    # is the cell end 1/2), and at tol 1e-300 the walk goes on inside the
    # cell placed at the root's float spacing for a sign or two more,
    # down to adjacent floats
    signs, solves = [], []

    def counted(terms, r):
        signs.append(r)
        return equation_sign(terms, r)

    def solve(terms, tol):
        before = len(signs)
        bracket = bracket_of(terms, tol)
        solves.append((terms, bracket, len(signs) - before))
        return bracket

    equation_sign, bracket_of = radii._equation_sign, radii._bracket
    monkeypatch.setattr(radii, "_equation_sign", counted)
    monkeypatch.setattr(radii, "_bracket", solve)
    assert len(emit_radius_table()) == 144
    assert len(solves) == len({terms for terms, _, _ in solves}) == 78
    for _, bracket, calls in solves:
        assert calls == (1 if bracket[0] == bracket[1] else 2)
    assert sum(bracket[0] == bracket[1] for _, bracket, _ in solves) == 3
    solves.clear()
    assert len(emit_radius_table(tol=1e-300)) == 144
    assert len(solves) == 78
    assert max(calls for _, _, calls in solves) <= 4


def test_radius_table_rows_are_solve_radius():
    # a row shares its bracket with every row of its equation; each must
    # still be exactly what solve_radius gives for the row's family
    for tol in (1e-12, 1e-300):
        for row in radii.radius_table(tol=tol):
            spec = FAMILIES[row["family"]]
            fam = RadiusFamily(row["family"], k=row["k"], p=row["p"],
                               **({spec.attr: row[spec.label]} if spec.attr else {}))
            res = solve_radius(fam, tol)
            assert (row["bracket_lo"], row["bracket_hi"]) == res.bracket
            assert (row["root"], row["cap"], row["radius"], row["binding"]) == (
                res.root, fam.cap, res.radius, res.binding)
            assert {label: row[label] for label in ("lambda", "gamma", "beta")} == {
                s.label: getattr(fam, s.attr) for s in FAMILIES.values() if s.attr}


def test_radius_table_solves_afresh_on_every_call(monkeypatch):
    # the brackets live for one call: a second table in the same process
    # makes the same exact solves as the first, so no cache outlives a call
    solves = []

    def solve(terms, tol):
        solves.append(terms)
        return bracket_of(terms, tol)

    bracket_of = radii._bracket
    monkeypatch.setattr(radii, "_bracket", solve)
    counts = []
    for _ in range(2):
        solves.clear()
        emit_radius_table()
        counts.append(len(solves))
    assert counts == [78, 78]


@pytest.mark.parametrize("tol", (1e-12, 2.0 ** -52))
def test_wrong_newton_estimate_costs_a_few_exact_signs(tol):
    # a guess half a cell from the root is one cell off at worst, and the
    # doubling search then needs one more sign below the root or none
    # above it; a guess at 0 or 1 (Newton failing outright) pays the
    # doubling search and the walk over up to the whole level-L range
    fam = RadiusFamily("starlike", k=1.0, p=5)
    level = 1 - math.frexp(tol)[1]
    lo, hi = (float.fromhex(end) for end in reference_bracket(fam, 1e-300, False))
    root, half_cell = 0.5 * (lo + hi), math.ldexp(0.5, -level)
    signs = []

    def counted(terms, r):
        signs.append(r)
        return equation_sign(terms, r)

    equation_sign = radii._equation_sign
    for guess, most in ((root - half_cell, 3), (root + half_cell, 2),
                        (0.0, 2 * (level + 1)), (1.0, 2 * (level + 1))):
        signs.clear()
        with mock.patch.object(radii, "_newton_root", lambda f, slope, tiny: guess), \
                mock.patch.object(radii, "_equation_sign", counted):
            res = solve_radius(fam, tol)
        assert len(signs) <= most
        assert (res.bracket[0].hex(), res.bracket[1].hex()) == reference_bracket(fam, tol, False)


# families whose roots lie far below 2^-52, down to about 1e-300
TINY_ROOTS = (RadiusFamily("general", k=1.0, p=5, lam=1e300),
              RadiusFamily("general", k=0.5, p=3, lam=1e100),
              RadiusFamily("general", k=1.0, p=math.inf, lam=2.0 ** 200),
              RadiusFamily("convex", k=1.0, p=2, beta=1e20),
              RadiusFamily("convex", k=0.75, p=12, beta=3e150))


@pytest.mark.parametrize("fam", TINY_ROOTS)
@pytest.mark.parametrize("tol", (1e-40, 1e-300, 5e-324))
def test_tiny_tol_solve_pays_a_few_exact_signs(fam, tol):
    # the placed cell is at the estimate's own float spacing, so below
    # 2^-52 the walk goes on inside it for a sign or two, not for one
    # sign per level down to the tolerance
    signs = []

    def counted(terms, r):
        signs.append(r)
        return equation_sign(terms, r)

    equation_sign = radii._equation_sign
    with mock.patch.object(radii, "_equation_sign", counted):
        res = solve_radius(fam, tol)
    assert len(signs) <= 4
    assert (res.bracket[0].hex(), res.bracket[1].hex()) == reference_bracket(fam, tol, False)


@settings(max_examples=60, deadline=None)
@given(st.floats(10.0, 1000.0), st.floats(0.5, 1.0), ORDERS, st.booleans(),
       st.sampled_from((1e-40, 1e-300, 5e-324)),
       st.one_of(st.none(), st.floats(0.0, 1.0), st.integers(0, 1074).map(lambda n: 2.0 ** -n)))
def test_tiny_root_bracket_is_that_of_an_exact_bisection(bits, k, p, statement_form, tol, guess):
    # tiny roots with the Newton estimate or any guess: the doubling
    # search signs only floats, and the bracket is the exact walk's
    fam = RadiusFamily("general", k=k, p=p, lam=2.0 ** bits)
    if guess is None:
        res = solve_radius(fam, tol, statement_form=statement_form)
    else:
        with mock.patch.object(radii, "_newton_root", lambda f, slope, tiny: guess):
            res = solve_radius(fam, tol, statement_form=statement_form)
    assert (res.bracket[0].hex(), res.bracket[1].hex()) == reference_bracket(
        fam, tol, statement_form)


def root_or_one(res):
    """A missing root means the equation stays positive on [0, 1)."""
    return 1.0 if res.root is None else res.root


@settings(max_examples=150, deadline=None)
@given(problems(), TOLS)
def test_solve_proves_its_bracket_exactly(problem, tol):
    fam, statement_form = problem
    res = solve_radius(fam, tol, statement_form=statement_form)
    if exact_coefficients(fam, statement_form)[2] == 0:
        assert res.root is None and res.bracket is None and res.radius == res.family.cap
        return
    lo, hi = res.bracket
    if lo == hi:
        assert exact_factor(fam, lo, statement_form) == 0
    else:
        assert exact_factor(fam, lo, statement_form) > 0 > exact_factor(fam, hi, statement_form)
    assert hi - lo <= tol or hi == np.nextafter(lo, 1.0)
    assert lo <= res.root <= hi
    assert res.radius == min(res.root, res.family.cap)


@settings(max_examples=150, deadline=None)
@given(problems(), st.floats(0.0, 1.0), st.one_of(ORDERS, st.sampled_from(HUGE_ORDERS)))
def test_root_never_increases_in_k_or_p(problem, k, p):
    # Bisection on one fixed grid of midpoints with exactly decided signs
    # keeps the order of the functions, so no tolerance is needed.
    fam, statement_form = problem
    base = root_or_one(solve_radius(fam, statement_form=statement_form))
    stronger_k = dataclasses.replace(fam, k=max(k, fam.k))
    higher_p = dataclasses.replace(fam, p=max(p, fam.p))
    assert root_or_one(solve_radius(stronger_k, statement_form=statement_form)) <= base
    higher_p_root = root_or_one(solve_radius(higher_p, statement_form=statement_form))
    if statement_form:
        # the variant subtracts lambda r^(p+1), which shrinks as p grows
        assert higher_p_root >= base
    else:
        assert higher_p_root <= base
