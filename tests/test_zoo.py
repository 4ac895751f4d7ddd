"""Function families: Blaschke products, Schur matrices, convex and
starlike targets, layered polyanalytic assembly."""

from fractions import Fraction

import numpy as np
import pytest

from bohrlab.opmat import op_norm, op_norms, abs_op
from bohrlab.series import MatrixSeries, compose, majorant, scalar_series
from bohrlab.zoo import (
    BlaschkeSpec,
    PolyanalyticFn,
    blaschke_series,
    build_polyanalytic,
    convex_model,
    gen_schur_matrix,
    haar_unitary,
    mobius_extremal,
    mobius_transfer,
    random_blaschke_spec,
    starlike_from_q,
)

LEMMA_GRID = tuple(0.05 * i for i in range(1, 7)) + (1 / 3,)


def bohr_lo(fn, r):
    """The lower end of the Bohr sum of fn at the one radius r."""
    return majorant(fn).bohr([r])[0][0]


# ---------------------------------------------------------------- blaschke

def test_blaschke_spec_validation():
    with pytest.raises(ValueError):
        BlaschkeSpec((1.0,))
    with pytest.raises(ValueError):
        BlaschkeSpec((0.5,), rotation=2.0)
    spec = BlaschkeSpec((0.5, -0.3j), rotation=1j)
    assert spec.order == 2


def test_blaschke_single_zero_at_origin_is_z():
    b = blaschke_series(BlaschkeSpec((0.0,)), 6)
    expected = np.zeros(7)
    expected[1] = 1.0
    assert np.array_equal(b.coeffs[:, 0, 0], expected)
    assert b.growth == (1.0, 0)


def test_blaschke_single_real_zero_coefficients():
    # (z - a)/(1 - a z) = -a + (1 - a^2) sum a^(n-1) z^n
    a = 0.5
    b = blaschke_series(BlaschkeSpec((a,)), 5)
    got = b.coeffs[:, 0, 0]
    assert got[0] == pytest.approx(-a)
    for n in range(1, 6):
        assert got[n] == pytest.approx((1 - a * a) * a ** (n - 1))


def test_blaschke_double_zero_at_origin_is_z_squared():
    b = blaschke_series(BlaschkeSpec((0.0, 0.0)), 4)
    expected = np.zeros(5)
    expected[2] = 1.0
    assert np.array_equal(b.coeffs[:, 0, 0], expected)


def test_blaschke_is_contractive_on_disk():
    rng = np.random.default_rng(21)
    angles = 2 * np.pi * np.arange(64) / 64
    for i in range(50):
        spec = random_blaschke_spec(np.random.default_rng([21, i]))
        b = blaschke_series(spec, 64)
        vals = np.abs([b.eval(0.9 * np.exp(1j * t))[0, 0] for t in angles])
        assert vals.max() <= 1.0 + 1e-9


def test_origin_fixed_blaschke_obeys_schwarz_bound():
    # certified Bohr sum of an origin-fixed inner map stays below r
    # through r = 1/3
    for i in range(100):
        spec = random_blaschke_spec(np.random.default_rng([22, i]), fix_origin=True)
        assert spec.zeros[0] == 0.0
        hi = majorant(blaschke_series(spec, 64)).bohr(LEMMA_GRID)[1]
        assert np.all(hi <= np.array(LEMMA_GRID) + 1e-8)


# ---------------------------------------------------------------- mobius

def test_mobius_transfer_coefficients():
    al = 0.3 + 0.4j
    f = mobius_transfer(al, 4)
    got = f.coeffs[:, 0, 0]
    assert got[0] == pytest.approx(al)
    for n in range(1, 5):
        assert got[n] == pytest.approx((1 - abs(al) ** 2) * (-np.conj(al)) ** (n - 1))
    with pytest.raises(ValueError):
        mobius_transfer(1.0, 4)


def test_mobius_extremal_bohr_threshold():
    # Bohr sum a + (1-a^2) r/(1-a r) crosses 1 exactly at r = 1/(1+2a)
    a = 0.5
    f = mobius_extremal(a, 64)
    assert bohr_lo(f, 1 / 3) == pytest.approx(0.8, abs=1e-13)
    thresh = 1 / (1 + 2 * a)
    assert bohr_lo(f, thresh - 0.01) < 1.0
    assert bohr_lo(f, thresh + 0.01) > 1.0
    assert bohr_lo(f, 0.0) == pytest.approx(a)
    with pytest.raises(ValueError):
        mobius_extremal(1.0, 8)


# ---------------------------------------------------------------- schur matrices

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(23)
    for d in (1, 3, 6):
        u = haar_unitary(rng, d)
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_gen_schur_is_deterministic_per_seed():
    a = gen_schur_matrix([5, 3], 3, 32)
    b = gen_schur_matrix([5, 3], 3, 32)
    c = gen_schur_matrix([5, 4], 3, 32)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_gen_schur_contractive_values_and_coefficients():
    zs = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    for i in range(20):
        f = gen_schur_matrix([24, i], int(np.random.default_rng(i).integers(1, 5)), 64)
        assert f.growth == (1.0, 0)
        assert op_norms(f.coeffs).max() <= 1.0 + 1e-12
        assert max(op_norm(f.eval(z)) for z in zs) <= 1.0 + 1e-9


def test_gen_schur_fix_origin_vanishes_exactly():
    for i in range(10):
        f = gen_schur_matrix([25, i], 3, 16, fix_origin=True)
        assert op_norm(f.coeff(0)) == 0.0


def test_gen_schur_scalar_head_structure():
    for i in range(10):
        f = gen_schur_matrix([26, i], 4, 16, scalar_head=True)
        a0 = f.coeff(0)
        alpha = a0[0, 0]
        assert abs(alpha) <= 0.9 + 1e-12
        assert np.allclose(a0, alpha * np.eye(4), atol=1e-13)


def test_gen_schur_head_coefficient_bound():
    # every later coefficient is bounded by ||I - |A_0|^2||
    for i in range(50):
        f = gen_schur_matrix([27, i], 3, 64, scalar_head=True)
        a0 = f.coeff(0)
        absa = abs_op(a0)
        cap = op_norm(np.eye(3) - absa @ absa)
        assert op_norms(f.coeffs[1:]).max() <= cap + 1e-8


def test_gen_schur_rejects_conflicting_flags():
    with pytest.raises(ValueError):
        gen_schur_matrix(1, 2, 8, fix_origin=True, scalar_head=True)


# ---------------------------------------------------------------- convex / starlike

def test_convex_model_coefficients_and_bohr():
    # beta z/(1-z) I is stored as the 1x1 series of its scalar
    beta, n = 0.75, 32
    g = convex_model(beta, n)
    assert g.dim == 1
    assert g.coeffs[:, 0, 0].tolist() == [0.0] + [beta] * n
    assert g.growth == (beta, 0)
    r = 0.25
    expected = beta * (r - r ** (n + 1)) / (1 - r)
    assert bohr_lo(g, r) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        convex_model(0.0, 8)


def test_starlike_from_q_refuses_u_outside_the_closed_disk():
    # |u| <= 1 up to 1e-12; NaN and inf are refused, not left to fail
    # later as non-finite coefficients
    for u in (1.5, float("nan"), complex("nan"), float("inf")):
        with pytest.raises(ValueError, match="Caratheodory parameter"):
            starlike_from_q(u, 4)
    for u in (1.0, -1j, np.exp(2.0j)):
        assert op_norms(starlike_from_q(u, 4).coeffs)[4] == pytest.approx(4.0, rel=1e-12)


def test_starlike_koebe_and_degenerate_data():
    # u = 1 gives the Koebe coefficients n I; u = 0 gives z I
    g = starlike_from_q(1.0, 8)
    assert g.dim == 1
    assert g.coeffs[:, 0, 0].tolist() == list(range(9))
    g0 = starlike_from_q(0.0, 8)
    assert g0.coeffs[:, 0, 0].tolist() == [0, 1] + [0] * 7


def starlike_recurrence(u, degree):
    """Scalar coefficients of the starlike map from the recurrence
    (n - 1) g_n = sum_{j=1}^{n-1} q_j g_{n-j}, q_j = 2 u^j, g_1 = 1, in
    exact complex rationals held as (real, imag) Fraction pairs."""
    def times(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    u = (Fraction(u.real), Fraction(u.imag))
    q = [(Fraction(0), Fraction(0)), (2 * u[0], 2 * u[1])]
    for _ in range(2, degree):
        q.append(times(q[-1], u))
    g = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    for n in range(2, degree + 1):
        terms = [times(q[j], g[n - j]) for j in range(1, n)]
        g.append((sum(t[0] for t in terms) / (n - 1), sum(t[1] for t in terms) / (n - 1)))
    return [complex(float(re), float(im)) for re, im in g]


def test_starlike_closed_form_matches_the_recurrence():
    # g = z / (1 - u z)^2, so g_n = n u^(n-1), solves the recurrence
    for u in (1.0, -1.0, 0.0, 0.5j, 0.75 - 0.25j, 0.6 + 0.8j, np.exp(2.0j)):
        got = starlike_from_q(u, 64).coeffs
        assert got.shape == (65, 1, 1)
        for n, want in enumerate(starlike_recurrence(complex(u), 64)):
            assert abs(got[n, 0, 0] - want) <= 1e-13 * abs(want)


def test_starlike_coefficients_growth_bound():
    # |u| <= 1 forces ||g_n|| <= n (Koebe is extreme), within the class
    # (1, 1) g carries; a |u| above 1, which the rounding slack admits,
    # makes g_n grow geometrically, and g carries no class
    rng = np.random.default_rng(28)
    for _ in range(25):
        u = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        g = starlike_from_q(u, 32)
        norms = op_norms(g.coeffs)
        assert all(norms[n] <= n + 1e-10 for n in range(33))
    assert g.growth == (1.0, 1)
    assert starlike_from_q(1.0 + 1e-13, 32).growth is None


# ------------------------------------------------------- subordination majorant

def test_composition_inherits_coefficient_majorant():
    # coefficients of g(phi) are Bohr-dominated by those of g up to 1/3
    rng = np.random.default_rng(29)
    for i in range(30):
        d = int(rng.integers(1, 4))
        pick = int(rng.integers(3))
        if pick == 0:
            g = gen_schur_matrix(rng, d, 64)
        elif pick == 1:
            g = convex_model(float(rng.uniform(0.25, 2.0)), 64)
        else:
            u = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            g = starlike_from_q(u, 64)
        phi = blaschke_series(random_blaschke_spec(rng, fix_origin=True), 64)
        f = compose(g, phi)
        lf, lg = (majorant(h).bohr(LEMMA_GRID)[0] for h in (f, g))
        assert np.all(lf <= lg + 1e-8)


def test_convex_subordinate_coefficient_cap():
    # subordination to the convex target caps every coefficient at beta
    rng = np.random.default_rng(30)
    for i in range(20):
        beta = float(rng.uniform(0.25, 2.0))
        g = convex_model(beta, 64)
        phi = blaschke_series(random_blaschke_spec(rng, fix_origin=True), 64)
        f = compose(g, phi)
        assert op_norms(f.coeffs).max() <= beta + 1e-8


# ---------------------------------------------------------------- polyanalytic

def _origin_fixed_schur(seed, d, n):
    return gen_schur_matrix(seed, d, n, fix_origin=True)


def test_polyanalytic_validation():
    f0 = _origin_fixed_schur(31, 2, 8)
    with pytest.raises(ValueError):
        PolyanalyticFn((f0,))
    with pytest.raises(ValueError):
        build_polyanalytic(gen_schur_matrix(31, 2, 8, scalar_head=True), [f0])
    # a constant term whose squares underflow in the Gram matrix is still nonzero
    tiny = f0.coeffs.copy()
    tiny[0] = 1e-200 * np.eye(2)
    with pytest.raises(ValueError, match="vanish"):
        build_polyanalytic(MatrixSeries(tiny), [f0])


def test_build_with_zero_ratio_gives_zero_layer():
    f0 = _origin_fixed_schur(32, 2, 16)
    fn = build_polyanalytic(f0, [MatrixSeries(np.zeros((17, 2, 2)), (0.0, 0))])
    assert fn.p == 2
    assert op_norms(fn.components[1].coeffs).max() == 0.0
    for r in (0.0, 0.2):
        assert bohr_lo(fn, r) == pytest.approx(bohr_lo(f0, r))


def test_build_with_constant_ratio_reproduces_scaled_base():
    k = 0.5
    f0 = _origin_fixed_schur(33, 2, 16)
    omega = MatrixSeries(np.concatenate([k * np.eye(2)[None], np.zeros((16, 2, 2))]), (k, 0))
    fn = build_polyanalytic(f0, [omega])
    assert np.allclose(fn.components[1].coeffs, k * f0.coeffs, atol=1e-14)


def test_layer_bohr_dominated_by_scaled_base():
    # each derived layer's truncated Bohr sum sits below k times the
    # base layer's, for radii where the ratio stays contractive
    rng = np.random.default_rng(34)
    for i in range(20):
        k = float(rng.uniform(0, 1))
        f0 = _origin_fixed_schur(rng, 2, 64)
        omega = MatrixSeries(k * gen_schur_matrix(rng, 2, 64, scalar_head=True).coeffs, (k, 0))
        fn = build_polyanalytic(f0, [omega])
        r = 0.25
        assert bohr_lo(fn.components[1], r) <= k * bohr_lo(f0, r) + 1e-10


def test_layers_vanish_at_origin():
    f0 = _origin_fixed_schur(35, 3, 16)
    omega = gen_schur_matrix(36, 3, 16, scalar_head=True)
    fn = build_polyanalytic(f0, [omega, omega])
    assert fn.p == 3
    for f in fn.components:
        assert op_norm(f.coeff(0)) == 0.0


def test_layered_bohr_examples():
    f0 = scalar_series([0, 1], (1.0, 0))                # z
    fn = PolyanalyticFn((f0, f0))
    r = 0.25
    # layers are both z: total = (1 + r) * r
    lo, hi, certified = majorant(fn).bohr([r])
    assert lo[0] == pytest.approx((1 + r) * r)
    assert certified
    assert bohr_lo(fn, 0.0) == 0.0
    with pytest.raises(ValueError):
        majorant(fn).bohr([1.0])
