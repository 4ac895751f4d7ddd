"""Property tests pinning the series kernels to their naive definitions:
compose against the power-by-power convolution loop, mul against the
double loop over coefficient pairs, mobius_compose against
composition with the automorphism's series, and the grid Bohr sums
against the one-radius form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.series import Majorant, MatrixSeries, compose, identity_series, mul, scalar_series
from bohrlab.zoo import blaschke_series, mobius_compose, mobius_transfer, random_blaschke_spec

SETTINGS = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from((1, 2, 3))
degrees = st.integers(0, 24)


def random_coeffs(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_inner(rng, degree, scale=0.4):
    """Scalar series with constant term exactly zero."""
    p = scale * random_coeffs(rng, degree + 1) / np.sqrt(degree + 1)
    p[0] = 0.0
    return scalar_series(p)


def compose_reference(g, phi):
    n = min(g.degree, phi.degree)
    p = phi.coeffs[: n + 1, 0, 0]
    out = np.zeros((n + 1, g.dim, g.dim), dtype=np.complex128)
    power = np.zeros(n + 1, dtype=np.complex128)
    power[0] = 1.0
    for k in range(n + 1):
        out += power[:, None, None] * g.coeffs[k]
        power = np.convolve(power, p)[: n + 1]
    return out


def mul_reference(f, g):
    n = min(f.degree, g.degree)
    out = np.zeros((n + 1, f.dim, f.dim), dtype=np.complex128)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += f.coeffs[i] @ g.coeffs[j]
    return out


def assert_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    scale = 1.0 + float(np.abs(expected).max())
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rel * scale)


@SETTINGS
@given(seeds, dims, degrees, degrees)
def test_compose_matches_convolution_loop(seed, dim, g_degree, phi_degree):
    rng = np.random.default_rng(seed)
    g = MatrixSeries(random_coeffs(rng, (g_degree + 1, dim, dim)))
    phi = random_inner(rng, phi_degree)
    c = compose(g, phi)
    assert c.coeff_bound is None
    assert_close(c.coeffs, compose_reference(g, phi))


@settings(max_examples=8, deadline=None)
@given(seeds, st.sampled_from((3, 8)), st.sampled_from((64, 128)))
def test_kernels_match_references_at_campaign_sizes(seed, dim, degree):
    # the dims and degrees the benchmark's campaigns run at
    rng = np.random.default_rng(seed)
    f = MatrixSeries(random_coeffs(rng, (degree + 1, dim, dim)))
    g = MatrixSeries(random_coeffs(rng, (degree + 1, dim, dim)))
    phi = blaschke_series(random_blaschke_spec(rng, fix_origin=True), degree)
    assert_close(compose(g, phi).coeffs, compose_reference(g, phi))
    assert_close(mul(f, g).coeffs, mul_reference(f, g))


@SETTINGS
@given(seeds, degrees, st.integers(0, 24))
def test_compose_powers_keep_exact_zeros(seed, degree, k):
    # g = z^k: the output is phi^k, whose coefficients below degree k
    # must come out exactly zero
    rng = np.random.default_rng(seed)
    k = min(k, degree)
    monomial = np.zeros(degree + 1)
    monomial[k] = 1.0
    c = compose(scalar_series(monomial), random_inner(rng, degree, scale=1.0))
    assert np.all(c.coeffs[:k] == 0.0)


@SETTINGS
@given(seeds, degrees, st.complex_numbers(min_magnitude=1e-300, max_magnitude=10.0))
def test_compose_rejects_inner_maps_off_the_origin(seed, degree, constant):
    rng = np.random.default_rng(seed)
    g = MatrixSeries(random_coeffs(rng, (degree + 1, 2, 2)))
    p = random_coeffs(rng, degree + 1)
    p[0] = constant
    with pytest.raises(ValueError, match="constant term"):
        compose(g, scalar_series(p))
    with pytest.raises(ValueError, match="scalar"):
        compose(g, identity_series(2, degree))


@SETTINGS
@given(seeds, dims, degrees, degrees)
def test_mul_matches_double_loop(seed, dim, f_degree, g_degree):
    rng = np.random.default_rng(seed)
    f = MatrixSeries(random_coeffs(rng, (f_degree + 1, dim, dim)))
    g = MatrixSeries(random_coeffs(rng, (g_degree + 1, dim, dim)))
    h = mul(f, g)
    assert h.coeff_bound is None
    assert_close(h.coeffs, mul_reference(f, g))


@SETTINGS
@given(seeds, st.integers(0, 64), st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi))
def test_mobius_compose_matches_composition(seed, degree, modulus, angle):
    rng = np.random.default_rng(seed)
    alpha = modulus * np.exp(1j * angle)
    b = blaschke_series(random_blaschke_spec(rng, fix_origin=True), degree)
    head = mobius_compose(alpha, b)
    assert head.coeff_bound is None
    assert_close(head.coeffs, compose(mobius_transfer(alpha, degree), b).coeffs)


def test_mobius_compose_validation():
    b = scalar_series([0.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="alpha"):
        mobius_compose(1.0, b)
    with pytest.raises(ValueError, match="constant term"):
        mobius_compose(0.5, scalar_series([0.1, 0.5]))
    with pytest.raises(ValueError, match="scalar"):
        mobius_compose(0.5, identity_series(2, 2))


@SETTINGS
@given(seeds, st.integers(1, 130), st.integers(1, 40), st.booleans(), st.booleans())
def test_bohr_grid_equals_one_radius_form_bit_for_bit(seed, size, points, bounded, with_zero):
    rng = np.random.default_rng(seed)
    m = Majorant(rng.uniform(0.0, 2.0, size), float(rng.uniform(0.0, 3.0)) if bounded else None)
    radii = rng.uniform(0.0, 1.0, points)
    if with_zero:
        radii[rng.integers(points)] = 0.0
    lo, hi = m.bohr_grid(radii)
    for i, r in enumerate(radii):
        iv = m.bohr(r)
        assert (iv.lo, iv.hi) == (lo[i], hi[i])
        assert iv.certified == (bounded or r == 0.0)


def test_bohr_grid_rejects_radii_outside_the_disk():
    m = Majorant([1.0, 0.5], 1.0)
    for bad in ([0.5, 1.0], [-0.1], [np.nan]):
        with pytest.raises(ValueError, match="radius"):
            m.bohr_grid(bad)
    with pytest.raises(ValueError):
        m.bohr_grid([[0.1, 0.2]])
