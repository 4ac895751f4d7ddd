"""Series arithmetic, Bohr enclosures, and the operator-algebra laws."""

import json

import numpy as np
import pytest

from bohrlab.opmat import op_norms
from bohrlab.series import (
    MatrixSeries,
    RInterval,
    add,
    bohr_sum,
    compose,
    constant_series,
    derivative,
    identity_series,
    integrate0,
    majorant,
    mul,
    pad_to,
    scalar_series,
    scale,
    series_from_json,
    series_to_json,
    with_coeff_bound,
    zero_series,
)
from bohrlab.series import _truncate


def random_series(rng, d, degree, norms_leq_one=False, coeff_bound=None):
    c = rng.normal(size=(degree + 1, d, d)) + 1j * rng.normal(size=(degree + 1, d, d))
    if norms_leq_one:
        scale_to = rng.uniform(0.0, 1.0, degree + 1)
        c = c * (scale_to / np.maximum(op_norms(c), 1e-300))[:, None, None]
    return MatrixSeries(c, coeff_bound)


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


def test_rinterval_validation():
    with pytest.raises(ValueError):
        RInterval(1.0, 0.5)
    iv = RInterval(0.25, 0.5)
    assert 0.3 in iv and 0.6 not in iv
    assert iv.width == pytest.approx(0.25)


# ---------------------------------------------------------------- evaluation

def test_eval_polynomial():
    f = scalar_series([1, 1, 1])
    assert f.eval(0.5)[0, 0] == pytest.approx(1.75)
    g = identity_series(3, degree=2)
    assert np.array_equal(g.eval(0.9), np.eye(3))


def test_eval_at_zero_is_constant_term():
    rng = np.random.default_rng(5)
    f = random_series(rng, 3, 8)
    assert np.array_equal(f.eval(0.0), f.coeff(0))


# ---------------------------------------------------------------- add / mul

def test_add_basic():
    z = scalar_series([0, 1])
    two_z = add(z, z)
    assert np.array_equal(two_z.coeffs[:, 0, 0], [0, 2])


def test_add_bounds_sum():
    rng = np.random.default_rng(6)
    f = random_series(rng, 2, 5, coeff_bound=0.5)
    g = random_series(rng, 2, 5, coeff_bound=0.25)
    assert add(f, g).coeff_bound == pytest.approx(0.75)
    assert add(f, with_coeff_bound(g, None)).coeff_bound is None


def test_add_truncates_to_min_degree():
    f = scalar_series([1, 2, 3, 4])
    g = scalar_series([1, 1])
    s = add(f, g)
    assert s.degree == 1
    assert np.array_equal(s.coeffs[:, 0, 0], [2, 3])


def test_add_dim_mismatch():
    with pytest.raises(ValueError):
        add(zero_series(2, 3), zero_series(3, 3))


def test_truncate_keeps_certificate_sound():
    # dropping a stored coefficient larger than the old tail bound must
    # grow the bound to cover it
    f = scalar_series([0, 1, 0, 5], coeff_bound=1.0)
    t = _truncate(f, 1)
    assert t.degree == 1
    assert t.coeff_bound == pytest.approx(5.0)


def test_mul_identity_and_difference_of_squares():
    rng = np.random.default_rng(7)
    f = random_series(rng, 2, 6)
    prod = mul(f, pad_to(identity_series(2), 6))
    assert np.allclose(prod.coeffs, f.coeffs, atol=1e-14)
    a = pad_to(scalar_series([1, 1]), 2)
    b = pad_to(scalar_series([1, -1]), 2)
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
        compose(g, identity_series(2, degree=2))


def test_compose_with_z_squared():
    g = scalar_series([0, 1, 1, 1, 1])
    phi = pad_to(scalar_series([0, 0, 1]), 4)
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

def test_derivative_and_integral_examples():
    f = scalar_series([1, 2, 3])
    df = derivative(f)
    assert np.array_equal(df.coeffs[:, 0, 0], [2, 6])
    back = integrate0(df, f.coeff(0))
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-15)
    assert derivative(constant_series(np.eye(2))).degree == 0
    assert np.array_equal(derivative(constant_series(np.eye(2))).coeffs, np.zeros((1, 2, 2)))


def test_derivative_integral_round_trip_random():
    rng = np.random.default_rng(11)
    f = random_series(rng, 3, 20)
    back = integrate0(derivative(f), f.coeff(0))
    assert np.allclose(back.coeffs[:21], f.coeffs, atol=1e-12)


# ---------------------------------------------------------------- bohr sums

def test_bohr_constant_series():
    f = constant_series(2.0 * np.eye(2))
    iv = bohr_sum(f, 0.9)
    assert iv.lo == pytest.approx(2.0) and iv.hi == pytest.approx(2.0)
    assert iv.certified


def test_bohr_mobius_closed_form():
    # (a + z)/(1 + a z) at a = 1/2 has Bohr sum a + (1 - a^2) r / (1 - a r);
    # at r = 1/3 that is exactly 0.8
    a = 0.5
    coeffs = np.zeros(65, dtype=complex)
    coeffs[0] = a
    coeffs[1:] = (1 - a * a) * (-a) ** np.arange(64)
    f = scalar_series(coeffs, coeff_bound=1.0)
    iv = bohr_sum(f, 1 / 3)
    assert iv.lo == pytest.approx(0.8, abs=1e-13)
    assert iv.hi - iv.lo <= 1e-28
    assert iv.certified


def test_bohr_monomial():
    f = scalar_series([0, 1], coeff_bound=0.0)
    assert bohr_sum(f, 0.25).lo == pytest.approx(0.25)
    assert bohr_sum(f, 0.25).hi == pytest.approx(0.25)


def test_bohr_tail_formula():
    f = scalar_series([1.0, 1.0], coeff_bound=2.0)
    r = 0.5
    iv = bohr_sum(f, r)
    assert iv.lo == pytest.approx(1.5)
    assert iv.hi == pytest.approx(1.5 + 2.0 * r**2 / (1 - r))
    assert iv.certified


def test_bohr_radius_validation_and_zero():
    f = scalar_series([1, 1])
    with pytest.raises(ValueError):
        bohr_sum(f, 1.0)
    with pytest.raises(ValueError):
        bohr_sum(f, -0.1)
    # r = 0 collapses to the constant term norm, exact even without a bound
    iv = bohr_sum(f, 0.0)
    assert iv.lo == iv.hi == 1.0
    assert iv.certified


def test_bohr_uncertified_without_bound():
    f = scalar_series([1, 1])
    iv = bohr_sum(f, 0.5)
    assert not iv.certified
    assert iv.hi == iv.lo


def test_majorant_values():
    f = MatrixSeries(np.stack([np.eye(2), [[0, 2], [0, 0]]]).astype(complex), 1.0)
    m = majorant(f)
    assert np.allclose(m.values, [1.0, 2.0], atol=1e-14)
    assert m.tail_bound == 1.0


# ------------------------------------------------------ operator-algebra laws

def test_bohr_algebra_laws_random():
    rng = np.random.default_rng(12)
    radii = (0.1, 0.5, 0.9, 0.99)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        f = random_series(rng, d, 16, norms_leq_one=True)
        g = random_series(rng, d, 16, norms_leq_one=True)
        al = complex(rng.normal(), rng.normal())
        s, p, af = add(f, g), mul(f, g), scale(f, al)
        eye = majorant(pad_to(identity_series(d), 16))
        mf, mg, ms, mp, ma = map(majorant, (f, g, s, p, af))
        for r in radii:
            lf, lg = mf.bohr(r).lo, mg.bohr(r).lo
            assert lf >= 0.0
            assert ms.bohr(r).lo <= lf + lg + 1e-10
            assert mp.bohr(r).lo <= lf * lg + 1e-10
            assert ma.bohr(r).lo == pytest.approx(abs(al) * lf, abs=1e-10)
            assert eye.bohr(r).lo == pytest.approx(1.0, abs=1e-12)


def test_bohr_zero_iff_all_coefficients_vanish():
    rng = np.random.default_rng(13)
    z = zero_series(3, 10)
    assert bohr_sum(z, 0.5).hi == 0.0
    f = random_series(rng, 3, 10)
    # at any positive radius a nonzero series has positive Bohr sum
    assert bohr_sum(f, 0.5).lo > 0.0


def test_tail_certificate_is_conservative():
    # extending a series with one more coefficient that obeys its bound
    # keeps the new enclosure inside the old one
    rng = np.random.default_rng(14)
    for _ in range(50):
        f = random_series(rng, 2, 8, norms_leq_one=True, coeff_bound=1.0)
        extra = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
        extra *= rng.uniform() / max(op_norms(extra)[0], 1e-300)
        g = MatrixSeries(np.concatenate([f.coeffs, extra]), 1.0)
        for r in (0.1, 0.4, 0.8):
            a, b = bohr_sum(f, r), bohr_sum(g, r)
            assert a.lo <= b.lo + 1e-14
            assert b.hi <= a.hi + 1e-14


# ---------------------------------------------------------------- serialization

def test_json_round_trip_exact():
    rng = np.random.default_rng(15)
    for bound in (None, 0.75):
        f = random_series(rng, 3, 7, coeff_bound=bound)
        payload = json.loads(json.dumps(series_to_json(f)))
        back = series_from_json(payload)
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.coeff_bound == f.coeff_bound


def test_json_rejects_inconsistent_payload():
    f = scalar_series([1, 2])
    payload = series_to_json(f)
    payload["degree"] = 5
    with pytest.raises(ValueError):
        series_from_json(payload)
