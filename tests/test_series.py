"""Series arithmetic, Bohr enclosures and the operator-algebra laws."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.opmat import NumericalError, op_norms
from bohrlab.series import (
    Majorant,
    MatrixSeries,
    compose,
    derivative,
    majorant,
    mul,
    scalar_series,
)
from bohrlab.zoo import PolyanalyticFn

SETTINGS = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 3)


def random_series(rng, d, degree, norms_leq_one=False, coeff_bound=None):
    c = rng.normal(size=(degree + 1, d, d)) + 1j * rng.normal(size=(degree + 1, d, d))
    if norms_leq_one:
        scale_to = rng.uniform(0.0, 1.0, degree + 1)
        c = c * (scale_to / np.maximum(op_norms(c), 1e-300))[:, None, None]
    return MatrixSeries(c, coeff_bound)


def bohr_at(fn, r):
    """(lo, hi, certified) of the Bohr sum of fn at the one radius r."""
    lo, hi, certified = majorant(fn).bohr([r])
    return lo[0], hi[0], certified


def identity_coeffs(d, degree):
    """Coefficients of the constant function z -> I through degree."""
    return np.concatenate([np.eye(d)[None], np.zeros((degree, d, d))])


# ---------------------------------------------------------------- construction

def test_shape_validation():
    with pytest.raises(ValueError):
        MatrixSeries(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        MatrixSeries(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        MatrixSeries(np.full((2, 1, 1), np.nan, dtype=complex))
    with pytest.raises(ValueError):
        MatrixSeries(np.zeros((2, 1, 1)), coeff_bound=-1.0)


def test_coefficients_are_frozen_copies():
    src = np.zeros((2, 2, 2), dtype=complex)
    f = MatrixSeries(src)
    src[0, 0, 0] = 5.0
    assert f.coeffs[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0] = 1.0


# ---------------------------------------------------------------- evaluation

def test_eval_polynomial():
    f = scalar_series([1, 1, 1])
    assert f.eval(0.5)[0, 0] == pytest.approx(1.75)
    g = MatrixSeries(identity_coeffs(3, 2))
    assert np.array_equal(g.eval(0.9), np.eye(3))


def test_eval_at_zero_is_constant_term():
    rng = np.random.default_rng(5)
    f = random_series(rng, 3, 8)
    assert np.array_equal(f.eval(0.0), f.coeff(0))


# ---------------------------------------------------------------- mul

def test_mul_identity_and_difference_of_squares():
    rng = np.random.default_rng(7)
    f = random_series(rng, 2, 6)
    prod = mul(f, MatrixSeries(identity_coeffs(2, 6)))
    assert np.allclose(prod.coeffs, f.coeffs, atol=1e-14)
    a = scalar_series([1, 1, 0])
    b = scalar_series([1, -1, 0])
    assert np.array_equal(mul(a, b).coeffs[:, 0, 0], [1, 0, -1])


def test_mul_drops_certificate():
    f = scalar_series([1, 1], coeff_bound=1.0)
    assert mul(f, f).coeff_bound is None


def test_mul_matches_pointwise_product():
    rng = np.random.default_rng(8)
    f = random_series(rng, 3, 12)
    g = random_series(rng, 3, 12)
    h = mul(f, g)
    # a polynomial product of degree 24 truncated at 12 agrees with the
    # pointwise product only through the stored degree, so compare
    # coefficients against a direct convolution
    direct = np.zeros_like(h.coeffs)
    for i in range(13):
        for j in range(13 - i):
            direct[i + j] += f.coeffs[i] @ g.coeffs[j]
    assert np.allclose(h.coeffs, direct, atol=1e-12)


# ---------------------------------------------------------------- compose

def test_compose_requires_scalar_origin_fixed_inner():
    g = scalar_series([1, 1, 1])
    with pytest.raises(ValueError):
        compose(g, scalar_series([0.5, 1, 0]))
    with pytest.raises(ValueError):
        compose(g, MatrixSeries(identity_coeffs(2, 2)))


def test_compose_with_z_squared():
    g = scalar_series([0, 1, 1, 1, 1])
    phi = scalar_series([0, 0, 1, 0, 0])
    c = compose(g, phi)
    assert np.array_equal(c.coeffs[:, 0, 0], [0, 0, 1, 0, 1])


def test_compose_with_scaled_argument():
    rng = np.random.default_rng(9)
    g = random_series(rng, 2, 10)
    phi = np.zeros(11, dtype=complex)
    phi[1] = 0.5
    c = compose(g, scalar_series(phi))
    expected = g.coeffs * (0.5 ** np.arange(11))[:, None, None]
    assert np.allclose(c.coeffs, expected, atol=1e-14)


def test_compose_matches_pointwise_composition():
    # truncated composition of bounded series agrees with evaluating
    # g(phi(z)) to within the geometric tail of the truncation
    rng = np.random.default_rng(10)
    n = 64
    for _ in range(20):
        d = int(rng.integers(1, 4))
        g = random_series(rng, d, n, norms_leq_one=True)
        raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        raw[0] = 0.0
        raw *= rng.uniform(0, 1, n + 1) / np.maximum(np.abs(raw), 1e-300)
        phi = scalar_series(raw)
        c = compose(g, phi)
        for _ in range(8):
            z = 0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w = phi.eval(z)[0, 0]
            diff = c.eval(z) - g.eval(w)
            assert op_norms(diff[None])[0] <= 2 * 0.3 ** (n + 1) / 0.7 + 1e-10


# ---------------------------------------------------------------- calculus

def test_derivative_examples():
    f = scalar_series([1, 2, 3])
    df = derivative(f)
    assert np.array_equal(df.coeffs[:, 0, 0], [2, 6])
    constant = MatrixSeries(np.eye(2)[None], 0.0)
    assert derivative(constant).degree == 0
    assert np.array_equal(derivative(constant).coeffs, np.zeros((1, 2, 2)))


@SETTINGS
@given(seeds, dims, st.integers(1, 24), st.sampled_from((None, 1.0)))
def test_derivative_is_the_closed_form(seed, d, degree, bound):
    # coefficient n - 1 of f' is n A_n, and no tail bound survives
    f = random_series(np.random.default_rng(seed), d, degree, coeff_bound=bound)
    df = derivative(f)
    assert df.coeff_bound is None
    assert np.array_equal(df.coeffs, [n * f.coeff(n) for n in range(1, degree + 1)])


# ---------------------------------------------------------------- bohr sums

def test_bohr_constant_series():
    f = MatrixSeries(2.0 * np.eye(2)[None], 0.0)
    lo, hi, certified = bohr_at(f, 0.9)
    assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)
    assert certified


def test_bohr_mobius_closed_form():
    # (a + z)/(1 + a z) at a = 1/2 has Bohr sum a + (1 - a^2) r / (1 - a r);
    # at r = 1/3 that is exactly 0.8
    a = 0.5
    coeffs = np.zeros(65, dtype=complex)
    coeffs[0] = a
    coeffs[1:] = (1 - a * a) * (-a) ** np.arange(64)
    f = scalar_series(coeffs, coeff_bound=1.0)
    lo, hi, certified = bohr_at(f, 1 / 3)
    assert lo == pytest.approx(0.8, abs=1e-13)
    assert hi - lo <= 1e-28
    assert certified


def test_bohr_monomial():
    f = scalar_series([0, 1], coeff_bound=0.0)
    lo, hi, _ = bohr_at(f, 0.25)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(0.25)


def test_bohr_tail_formula():
    f = scalar_series([1.0, 1.0], coeff_bound=2.0)
    r = 0.5
    lo, hi, certified = bohr_at(f, r)
    assert lo == pytest.approx(1.5)
    assert hi == pytest.approx(1.5 + 2.0 * r**2 / (1 - r))
    assert certified


def test_bohr_radius_validation_and_zero():
    f = scalar_series([1, 1])
    with pytest.raises(ValueError):
        bohr_at(f, 1.0)
    with pytest.raises(ValueError):
        bohr_at(f, -0.1)
    # r = 0 collapses to the constant term norm, exact even without a
    # bound, but a sum is certified only by its tail bounds
    assert bohr_at(f, 0.0) == (1.0, 1.0, False)


def test_bohr_uncertified_without_bound():
    f = scalar_series([1, 1])
    lo, hi, certified = bohr_at(f, 0.5)
    assert not certified
    assert hi == lo


def test_bohr_overflow_is_a_numerical_error():
    # norms of 1e308 sum past the float range at r = 0.9, and so does a
    # tail bound of 1e308 times r^(N+1) / (1 - r) = 8.1
    for layers in ([(np.full(65, 1e308), None)], [([1.0], 1e308)],
                   [([1.0], None), (np.full(3, 1e308), None)]):
        with pytest.raises(NumericalError, match="not finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            Majorant(layers).bohr([0.0, 0.9])


def test_majorant_values():
    f = MatrixSeries(np.stack([np.eye(2), [[0, 2], [0, 0]]]).astype(complex), 1.0)
    ((norms, tail_bound),) = majorant(f).layers
    assert np.allclose(norms, [1.0, 2.0], atol=1e-14)
    assert tail_bound == 1.0
    g = scalar_series([0.0, 3.0])
    fn = PolyanalyticFn((scalar_series([0.0, 1.0], 0.5), g))
    (_, first), (second_norms, second) = majorant(fn).layers
    assert (first, second) == (0.5, None)
    assert np.array_equal(second_norms, [0.0, 3.0])


def test_majorant_validation():
    for layers in ([], [([], None)], [([[1.0]], None)], [([-1.0], None)], [([np.inf], None)],
                   [([1.0], -1.0)], [([1.0], np.nan)]):
        with pytest.raises(ValueError):
            Majorant(layers)
    norms = np.array([1.0, 2.0])
    m = Majorant([(norms, 1)])
    norms[0] = 5.0
    assert m.layers[0][0][0] == 1.0 and m.layers[0][1] == 1.0
    with pytest.raises(ValueError):
        m.layers[0][0][0] = 3.0


# ------------------------------------------------------ operator-algebra laws

@settings(max_examples=200, deadline=None)
@given(seeds, dims, st.complex_numbers(max_magnitude=4.0))
def test_bohr_algebra_laws_random(seed, d, al):
    # subadditive and submultiplicative, absolutely homogeneous, and 1 at
    # the identity; f + g and al f are formed coefficientwise
    rng = np.random.default_rng(seed)
    f = random_series(rng, d, 16, norms_leq_one=True)
    g = random_series(rng, d, 16, norms_leq_one=True)
    s, p, af = MatrixSeries(f.coeffs + g.coeffs), mul(f, g), MatrixSeries(al * f.coeffs)
    eye = majorant(MatrixSeries(identity_coeffs(d, 16)))
    mf, mg, ms, mp, ma = map(majorant, (f, g, s, p, af))
    radii = (0.1, 0.5, 0.9, 0.99)
    lf, lg, ls, lp, la, li = (m.bohr(radii)[0] for m in (mf, mg, ms, mp, ma, eye))
    assert np.all(lf >= 0.0)
    assert np.all(ls <= lf + lg + 1e-10)
    assert np.all(lp <= lf * lg + 1e-10)
    np.testing.assert_allclose(la, abs(al) * lf, rtol=0, atol=1e-10)
    np.testing.assert_allclose(li, 1.0, rtol=0, atol=1e-12)


def test_bohr_zero_iff_all_coefficients_vanish():
    rng = np.random.default_rng(13)
    z = MatrixSeries(np.zeros((11, 3, 3)), 0.0)
    assert bohr_at(z, 0.5)[1] == 0.0
    f = random_series(rng, 3, 10)
    # at any positive radius a nonzero series has positive Bohr sum
    assert bohr_at(f, 0.5)[0] > 0.0


def test_tail_certificate_is_conservative():
    # extending a series with one more coefficient that obeys its bound
    # keeps the new enclosure inside the old one
    rng = np.random.default_rng(14)
    for _ in range(50):
        f = random_series(rng, 2, 8, norms_leq_one=True, coeff_bound=1.0)
        extra = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
        extra *= rng.uniform() / max(op_norms(extra)[0], 1e-300)
        g = MatrixSeries(np.concatenate([f.coeffs, extra]), 1.0)
        (f_lo, f_hi, _), (g_lo, g_hi, _) = (majorant(h).bohr([0.1, 0.4, 0.8]) for h in (f, g))
        assert np.all(f_lo <= g_lo + 1e-14)
        assert np.all(g_hi <= f_hi + 1e-14)
