"""Property tests pinning the series kernels to their naive definitions:
compose against the power-by-power convolution loop (and bit for bit
against its doubling with gathered Toeplitz matrices), mul against the
double loop over coefficient pairs, mobius_compose (defined here as the
reference for the scalar-head realization) against composition with
the automorphism's series, Majorant.bohr's grid sums of one series
and of layered functions against their one-radius form, the realization
expansion of Blaschke products and Schur diagonals against per-factor
convolution, the several-row block product against the double loop, the
one-row loop and (bit for bit) a strip made by sliding_window_view, a
1x1 right operand or base layer to the double loop with its s_j I copy,
and the one-product polyanalytic layers against one product per layer.
Every matmul that compose, and every campaign of the wide-d8-n128
benchmark, makes in series is pinned below the size at which OpenBLAS
hands it to a second thread.
The block expansion (expand) is pinned bit for bit to each function
expanded on its own, a stack of Schur draws to consecutive
gen_schur_matrix calls, the draws (draw_schur) to those of
gen_schur_matrix, and random_blaschke_spec to numpy's array formula
and to pinned bits.  A padded Blaschke row is pinned bit for bit to
itself in any call, and to its unpadded realization within
EXPANSION_ATOL."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import zoo
from bohrlab.cli import main
from bohrlab.series import (
    _MATMUL_LIMIT,
    Majorant,
    MatrixSeries,
    _block_product,
    _matmul,
    _rows_below_limit,
    compose,
    derivative,
    majorant,
    mul,
    scalar_series,
)
from bohrlab.zoo import (
    BlaschkeSpec,
    PolyanalyticFn,
    _blaschke_realization,
    _haar_from_gaussian,
    _mobius_realization,
    _realization_series,
    blaschke_series,
    build_polyanalytic,
    draw_schur,
    expand,
    gen_schur_matrix,
    haar_unitary,
    mobius_transfer,
    random_blaschke_spec,
)

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
    assert c.growth is None
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


def compose_by_gather(g, phi):
    """compose's doubling with each Toeplitz matrix gathered from a
    zero-padded copy of phi^m's coefficients by a shift index; compose,
    which copies them from one strided window, must equal it bit for
    bit.  The doubling and output products go through compose's own
    _matmul: its row blocks round as one unsplit one-thread zgemm does,
    which at degrees 128 and 129 differs from the two-thread zgemm that
    a @ b makes there.  A 1x1 g is contracted by compose's einsum, not a
    matvec."""
    n = min(g.degree, phi.degree)
    powers = np.zeros((n + 1, n + 1), dtype=np.complex128)
    powers[0, 0] = 1.0
    if n >= 1:
        powers[1] = phi.coeffs[: n + 1, 0, 0]
    ar = np.arange(n)
    shift = ar - ar[:, None]  # shift[i, j] = j - i
    m = 1
    while m < n:
        top, size = min(2 * m, n), n - m
        padded = np.zeros(2 * size, dtype=np.complex128)
        padded[:size] = powers[m, m:n]
        t = padded[shift[:size, :size]]
        powers[m + 1 : top + 1, m + 1 :] = _matmul(powers[1 : top - m + 1, 1 : size + 1], t)
        m = top
    gc = g.coeffs[: n + 1].reshape(n + 1, -1)
    out = np.einsum("kn,kj->nj", powers, gc) if g.dim == 1 else _matmul(powers.T, gc)
    return out.reshape(n + 1, g.dim, g.dim)


@pytest.mark.parametrize("degree", (0, 1, 2, 3, 31, 32, 33, 64, 65, 128, 129))
@pytest.mark.parametrize("dim", (1, 3, 8))
def test_compose_is_the_gather_doubling_bit_for_bit(dim, degree):
    rng = np.random.default_rng([dim, degree])
    g = MatrixSeries(random_coeffs(rng, (degree + 1, dim, dim)))
    for phi in (blaschke_series(random_blaschke_spec(rng, fix_origin=True), degree),
                random_inner(rng, degree)):
        assert np.array_equal(compose(g, phi).coeffs, compose_by_gather(g, phi))


def record_series_matmuls(monkeypatch):
    """The operand shapes of every np.matmul that bohrlab.series calls
    from now on, as (a.shape, b.shape) pairs in call order."""
    calls, matmul = [], np.matmul

    def recorder(a, b, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "bohrlab.series":
            calls.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorder)
    return calls


def unsplit_products(dim, n):
    """(m, k, n) of each product compose makes at degree n before any
    split: one per doubling step and, at dim > 1, the output."""
    products, m = [], 1
    while m < n:
        top = min(2 * m, n)
        products.append((top - m, n - m, n - m))
        m = top
    return products + ([(n + 1, n + 1, dim * dim)] if dim > 1 else [])


@pytest.mark.parametrize("degree", (1, 2, 31, 32, 33, 38, 46, 64, 65, 77, 78, 79, 80, 128, 129,
                                    256))
@pytest.mark.parametrize("dim", (1, 2, 3, 5, 6, 8, 16))
def test_compose_keeps_every_matmul_below_the_limit(monkeypatch, dim, degree):
    # a zgemm of _MATMUL_LIMIT multiply-adds or more goes to OpenBLAS's
    # second thread.  A product below the limit stays one matmul; a
    # larger one becomes the fewest row blocks below it, of sizes that
    # differ by at most one.  At dim 16, degree 256 one row of the
    # output product, 257 x 256 multiply-adds, reaches the limit alone.
    rng = np.random.default_rng([dim, degree])
    g = MatrixSeries(random_coeffs(rng, (degree + 1, dim, dim)))
    calls = record_series_matmuls(monkeypatch)
    compose(g, random_inner(rng, degree))
    for m, k, n in unsplit_products(dim, degree):
        rows = []
        while sum(rows) < m:
            a, b = calls.pop(0)
            assert a[1:] == (k,) and b == (k, n)
            rows.append(a[0])
        assert sum(rows) == m and max(rows) - min(rows) <= 1
        if m * k * n < _MATMUL_LIMIT:
            assert rows == [m]
        for r in rows:
            assert r * k * n < _MATMUL_LIMIT or (r, dim, degree) == (1, 16, 256)
        assert (len(rows) - 1) * max(1, (_MATMUL_LIMIT - 1) // (k * n)) < m
    assert not calls


def test_matmul_blocks_at_the_benchmark_shapes(monkeypatch):
    # wide-d8-n128's compose outputs (N+1, N+1) @ (N+1, 64), von-neumann's
    # at N = 38 and quasi's at N = 46: the most rows below the limit, the
    # blocks, and the bits of the unsplit product, which its reports keep
    expected = {38: (26, [19, 20]), 46: (21, [15, 16, 16])}
    rng = np.random.default_rng(36)
    calls = record_series_matmuls(monkeypatch)
    for n, (most, blocks) in expected.items():
        assert _rows_below_limit((n + 1) * 64) == most
        a, b = random_coeffs(rng, (n + 1, n + 1)), random_coeffs(rng, (n + 1, 64))
        calls.clear()
        out = _matmul(a, b)
        assert [shape[0] for shape, _ in calls] == blocks
        assert np.array_equal(out, a @ b)


@pytest.mark.parametrize("argv", [
    ("verify", "von-neumann", "--dim", "8", "--degree", "128"),
    ("verify", "quasi", "--dim", "8", "--degree", "128"),
    ("verify", "poly-general", "--lambda", "1", "--p", "3", "--k", "1", "--dim", "8",
     "--degree", "64"),
])
def test_campaigns_keep_every_series_matmul_on_one_thread(tmp_path, monkeypatch, argv):
    # wide-d8-n128's commands and poly-d3's poly-general at dim 8: every
    # matmul in series is 2-D and below the limit, and a one-row one (a
    # zgemv, which OpenBLAS threads from 64 x 64 entries) is below that
    calls = record_series_matmuls(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--trials", "3", "--out", str(tmp_path / "report.json")]) == 0
    assert calls
    for a, b in calls:
        assert len(a) == len(b) == 2 and a[1] == b[0]
        assert a[0] * a[1] * b[1] < _MATMUL_LIMIT
        assert a[0] > 1 or a[1] * b[1] < 64 * 64


@SETTINGS
@given(seeds, st.booleans())
def test_random_blaschke_spec_is_the_numpy_formula(seed, fix_origin):
    # the spec's Python-scalar arithmetic must round as numpy's array
    # formula does (this fails where cmath.exp and numpy's complex exp
    # differ), and make the same generator calls
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    spec = random_blaschke_spec(rng, fix_origin=fix_origin)
    count = int(reference.integers(1, 5))
    radii = 0.9 * np.sqrt(reference.uniform(0.0, 1.0, count))
    angles = reference.uniform(0.0, 2.0 * np.pi, count)
    zeros = list(radii * np.exp(1j * angles))
    if fix_origin:
        zeros[0] = 0.0
    rotation = np.exp(1j * reference.uniform(0.0, 2.0 * np.pi))
    assert rng.bit_generator.state == reference.bit_generator.state
    assert [bits(a) for a in spec.zeros] == [bits(a) for a in zeros]
    assert bits(spec.rotation) == bits(rotation)


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


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
        compose(g, g)


@SETTINGS
@given(seeds, dims, degrees, degrees)
def test_mul_matches_double_loop(seed, dim, f_degree, g_degree):
    rng = np.random.default_rng(seed)
    f = MatrixSeries(random_coeffs(rng, (f_degree + 1, dim, dim)))
    g = MatrixSeries(random_coeffs(rng, (g_degree + 1, dim, dim)))
    h = mul(f, g)
    assert h.growth is None
    assert_close(h.coeffs, mul_reference(f, g))


@SETTINGS
@given(seeds, st.integers(1, 130), st.integers(1, 40), st.booleans(), st.booleans())
def test_bohr_grid_equals_one_radius_form_bit_for_bit(seed, size, points, bounded, with_zero):
    # one series, with or without a growth class (C, s); radii below 0.4
    # for s > 0, where every class allowance is finite
    rng = np.random.default_rng(seed)
    exponent = int(rng.integers(0, 3))
    m = Majorant([(rng.uniform(0.0, 2.0, size),
                   (float(rng.uniform(0.0, 3.0)), exponent) if bounded else None)])
    radii = rng.uniform(0.0, 0.4 if exponent else 1.0, points)
    if with_zero:
        radii[rng.integers(points)] = 0.0
    lo, hi, certified = m.bohr(radii)
    assert certified == bounded
    for i, r in enumerate(radii):
        one_lo, one_hi, one_certified = m.bohr([r])
        assert (one_lo[0], one_hi[0], one_certified) == (lo[i], hi[i], certified)
        if r == 0.0:
            assert hi[i] == lo[i]


@SETTINGS
@given(seeds, dims, st.lists(st.booleans(), min_size=2, max_size=5), st.integers(1, 40),
       st.booleans())
def test_bohr_sum_poly_equals_one_radius_form_bit_for_bit(seed, dim, bounded, points, with_zero):
    # layers of different degrees, each with or without a growth class
    # (C, 0)
    rng = np.random.default_rng(seed)
    layers = [MatrixSeries(random_coeffs(rng, (int(rng.integers(1, 130)), dim, dim)),
                           (float(rng.uniform(0.0, 3.0)), 0) if b else None) for b in bounded]
    m = majorant(PolyanalyticFn(layers))
    radii = rng.uniform(0.0, 1.0, points)
    if with_zero:
        radii[rng.integers(points)] = 0.0
    lo, hi, certified = m.bohr(radii)
    assert certified == all(bounded)
    for i, r in enumerate(radii):
        one_lo, one_hi, one_certified = m.bohr([r])
        assert (one_lo[0], one_hi[0], one_certified) == (lo[i], hi[i], certified)


def test_bohr_grid_rejects_radii_outside_the_disk():
    m = Majorant([([1.0, 0.5], (1.0, 0))])
    for bad in ([0.5, 1.0], [-0.1], [np.nan]):
        with pytest.raises(ValueError, match="radius"):
            m.bohr(bad)
    with pytest.raises(ValueError):
        m.bohr([[0.1, 0.2]])


def blaschke_reference(spec, degree):
    """The Blaschke product by truncated convolution of its factors,
    (z - a) / (1 - conj(a) z) = -a + (1 - |a|^2) sum_{n>=1} conj(a)^(n-1) z^n."""
    coeffs = np.zeros(degree + 1, dtype=np.complex128)
    coeffs[0] = spec.rotation
    for a in spec.zeros:
        factor = np.zeros(degree + 1, dtype=np.complex128)
        if a == 0:
            if degree >= 1:
                factor[1] = 1.0
        else:
            factor[0] = -a
            factor[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(degree)
        coeffs = np.convolve(coeffs, factor)[: degree + 1]
    return coeffs


def mobius_compose(alpha, b):
    """Coefficients of m(b) = (alpha + b) / (1 + conj(alpha) b), the disk
    automorphism mobius_transfer(alpha) applied to a scalar series b
    with constant term exactly zero, through the degree of b.

    Equal to compose(mobius_transfer(alpha, deg b), b), but computed as
    one series division.  The denominator starts at 1, so its reciprocal
    comes from Newton iteration r <- r + r (1 - den r), which doubles the
    number of correct coefficients per step: with r right through degree
    m - 1, the error 1 - den r starts at degree m and only its next m
    coefficients are needed.  Like compose, the result carries no tail
    certificate; when b is a Schur function so is m(b).
    """
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise ValueError("automorphism parameter must satisfy |alpha| < 1")
    if b.dim != 1:
        raise ValueError("inner function must be scalar (dim 1)")
    if b.coeffs[0, 0, 0] != 0:
        raise ValueError("inner function must have constant term exactly zero")
    n = b.degree
    den = np.conj(alpha) * b.coeffs[:, 0, 0]
    den[0] = 1.0
    recip = np.ones(1, dtype=np.complex128)
    while recip.size <= n:
        m = recip.size
        top = min(2 * m, n + 1)
        err = np.convolve(den[:top], recip)[m:top]
        recip = np.concatenate([recip, -np.convolve(recip, err)[: top - m]])
    num = b.coeffs[:, 0, 0].copy()
    num[0] = alpha
    return scalar_series(np.convolve(num, recip)[: n + 1])


@SETTINGS
@given(seeds, st.integers(0, 64), st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi))
def test_mobius_compose_matches_composition(seed, degree, modulus, angle):
    rng = np.random.default_rng(seed)
    alpha = modulus * np.exp(1j * angle)
    b = blaschke_series(random_blaschke_spec(rng, fix_origin=True), degree)
    head = mobius_compose(alpha, b)
    assert head.growth is None
    assert_close(head.coeffs, compose(mobius_transfer(alpha, degree), b).coeffs)


def test_mobius_compose_validation():
    b = scalar_series([0.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="alpha"):
        mobius_compose(1.0, b)
    with pytest.raises(ValueError, match="constant term"):
        mobius_compose(0.5, scalar_series([0.1, 0.5]))
    with pytest.raises(ValueError, match="scalar"):
        mobius_compose(0.5, MatrixSeries(np.zeros((3, 2, 2))))


def gen_schur_reference(seed, dim, degree, fix_origin=False, scalar_head=False):
    """gen_schur_matrix with each diagonal entry expanded on its own,
    from the same draws in the same order."""
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, dim)
    if scalar_head:
        v = u.conj().T
        alpha0 = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        v = haar_unitary(rng, dim)
    diag = np.empty((degree + 1, dim), dtype=np.complex128)
    for i in range(dim):
        spec = random_blaschke_spec(rng, fix_origin=fix_origin or scalar_head)
        b = scalar_series(blaschke_reference(spec, degree))
        diag[:, i] = (mobius_compose(alpha0, b) if scalar_head else b).coeffs[:, 0, 0]
    return np.einsum("ab,nb,bc->nac", u, diag, v)


# The expansions compared below run to degree 256; the per-factor
# convolution they are compared with is itself accurate to about 3e-16.
EXPANSION_ATOL = 1e-14
expansion_degrees = st.sampled_from((0, 1, 2, 3, 4, 5, 64, 128, 256))


@st.composite
def blaschke_specs(draw, origin=False):
    """0..6 zeros of modulus up to 0.95, either spread over the disk or
    clustered within 1e-3 of one point of modulus 0.95, where a
    recurrence on the coefficients of prod (1 - conj(a) z) loses digits."""
    count = draw(st.integers(1 if origin else 0, 6))
    moduli = st.floats(0.0, 0.95)
    angles = st.floats(0.0, 2 * np.pi)
    zeros = [complex(draw(moduli) * np.exp(1j * draw(angles))) for _ in range(count)]
    if zeros and draw(st.booleans()):
        base = 0.95 * np.exp(1j * draw(angles))
        zeros = [base * (1.0 - 1e-3 * draw(st.floats(0.0, 1.0))) for _ in zeros]
    if origin:
        zeros[0] = 0.0
    return BlaschkeSpec(tuple(zeros), np.exp(1j * draw(angles)))


@SETTINGS
@given(blaschke_specs(), expansion_degrees)
def test_blaschke_series_matches_per_factor_convolution(spec, degree):
    b = blaschke_series(spec, degree)
    assert b.growth == (1.0, 0)
    np.testing.assert_allclose(b.coeffs[:, 0, 0], blaschke_reference(spec, degree),
                               rtol=0, atol=EXPANSION_ATOL)


@SETTINGS
@given(blaschke_specs(origin=True), expansion_degrees, st.floats(0.0, 0.95),
       st.floats(0.0, 2 * np.pi))
def test_mobius_realization_matches_mobius_compose(spec, degree, modulus, angle):
    alpha = modulus * np.exp(1j * angle)
    head = _realization_series(*_mobius_realization(alpha, *_blaschke_realization([spec])),
                               degree)[0]
    expected = mobius_compose(alpha, blaschke_series(spec, degree)).coeffs[:, 0, 0]
    np.testing.assert_allclose(head, expected, rtol=0, atol=EXPANSION_ATOL)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 8), expansion_degrees.filter(bool), st.booleans(), st.booleans())
def test_gen_schur_matrix_matches_per_entry_expansion(seed, dim, degree, fix_origin, head):
    fix_origin = fix_origin and not head
    f = gen_schur_matrix(seed, dim, degree, fix_origin=fix_origin, scalar_head=head)
    expected = gen_schur_reference(seed, dim, degree, fix_origin, head)
    np.testing.assert_allclose(f.coeffs, expected, rtol=0, atol=EXPANSION_ATOL)
    if fix_origin:
        assert np.all(f.coeffs[0] == 0.0)


def expand_together(draws, degree):
    """Coefficients of Schur draws of one dimension and mode, all their
    diagonal entries realized at the drawn order in one realization, one
    expansion, one QR and one einsum: how gen_schur_matrix expands one
    draw."""
    dim, head = draws[0].dim, draws[0].alpha0 is not None
    realization = _blaschke_realization([spec for d in draws for spec in d.specs])
    if head:
        realization = _mobius_realization(np.repeat([d.alpha0 for d in draws], dim), *realization)
    diag = _realization_series(*realization, degree).reshape(len(draws), dim, degree + 1)
    unitaries = _haar_from_gaussian(np.stack([d.gauss for d in draws]))
    u = unitaries[:, 0]
    v = u.conj().swapaxes(1, 2) if head else unitaries[:, 1]
    return np.einsum("kab,kbn,kbc->knac", u, diag, v)


SCHUR_MODES = [(False, False), (True, False), (False, True)]


@pytest.mark.parametrize("seed", range(6))
def test_expand_of_a_mixed_list_is_each_function_expanded_alone(seed):
    # inner maps and plain, fix_origin and scalar_head Schur draws of
    # dims 1, 2, 3 and 8, with Blaschke rows of orders 1..4, in one
    # shuffled list: expand realizes every row at the drawn order, in
    # one group per head, and every coefficient is the one of the
    # function's own expansion
    rng = np.random.default_rng(seed)
    draws, expected = [], []
    for dim in (1, 2, 3, 8):
        for mode, (fix_origin, scalar_head) in enumerate(SCHUR_MODES):
            for i in range(2):
                key = [seed, dim, mode, i]
                draws.append(draw_schur(np.random.default_rng(key), dim, fix_origin=fix_origin,
                                        scalar_head=scalar_head))
                expected.append(gen_schur_matrix(key, dim, 64, fix_origin=fix_origin,
                                                 scalar_head=scalar_head).coeffs)
    for order in range(1, 5):
        for fix_origin in (False, True):
            zeros = 0.9 * np.sqrt(rng.uniform(size=order)) * np.exp(2j * np.pi
                                                                    * rng.uniform(size=order))
            if fix_origin:
                zeros[0] = 0.0
            spec = BlaschkeSpec(tuple(zeros), np.exp(2j * np.pi * rng.uniform()))
            draws.append(spec)
            expected.append(blaschke_series(spec, 64).coeffs)
    assert {spec.order for d in draws for spec in getattr(d, "specs", (d,))} == {1, 2, 3, 4}
    perm = rng.permutation(len(draws))
    out = expand([draws[i] for i in perm], 64)
    for i, f in zip(perm, out):
        assert f.growth == (1.0, 0)
        assert np.array_equal(f.coeffs, expected[i])
        if not isinstance(draws[i], BlaschkeSpec):
            assert np.array_equal(f.coeffs, expand_together([draws[i]], 64)[0])


@pytest.mark.parametrize("count", (1, 2, 4))
@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("fix_origin, scalar_head", SCHUR_MODES)
def test_schur_stack_is_consecutive_gen_schur_draws(count, dim, fix_origin, scalar_head):
    # count consecutive draws expanded as one stack, as a polyanalytic
    # trial's ratio functions are, agree bit for bit with count
    # consecutive gen_schur_matrix calls and leave the generator in the
    # same state
    for seed in range(3):
        stack_rng, single_rng = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
        draws = [draw_schur(stack_rng, dim, fix_origin=fix_origin, scalar_head=scalar_head)
                 for _ in range(count)]
        stack = expand(draws, 64)
        singles = [gen_schur_matrix(single_rng, dim, 64, fix_origin=fix_origin,
                                    scalar_head=scalar_head).coeffs for _ in range(count)]
        assert np.array_equal(np.stack([f.coeffs for f in stack]), np.stack(singles))
        assert stack_rng.bit_generator.state == single_rng.bit_generator.state


def todays_draws(rng, dim, fix_origin, scalar_head):
    """The random draws of one gen_schur_matrix: the Gaussians of U (and
    of V), then alpha_0, then the d Blaschke specs."""
    gauss = [haar_unitary(rng, dim)]
    if scalar_head:
        alpha0 = 0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        gauss.append(haar_unitary(rng, dim))
        alpha0 = None
    specs = [random_blaschke_spec(rng, fix_origin=fix_origin or scalar_head) for _ in range(dim)]
    return alpha0, specs


@pytest.mark.parametrize("dim", (1, 2, 3, 8))
@pytest.mark.parametrize("fix_origin, scalar_head", SCHUR_MODES)
def test_draw_schur_makes_gen_schur_matrix_draws(dim, fix_origin, scalar_head):
    for seed in range(3):
        rng, reference = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
        draw = draw_schur(rng, dim, fix_origin=fix_origin, scalar_head=scalar_head)
        alpha0, specs = todays_draws(reference, dim, fix_origin, scalar_head)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert draw.alpha0 == alpha0 and draw.specs == tuple(specs)
        assert draw.gauss.shape == (1 if scalar_head else 2, dim, dim)


def test_realization_series_of_rows_with_different_orders():
    # rows of lower order are padded to the drawn order 4 with
    # pass-through sections (a = -1, s = 0): their states keep A's
    # diagonal -1 and nothing else, and a spec without zeros is a constant
    specs = [BlaschkeSpec(()), BlaschkeSpec((0.0,), 1j), BlaschkeSpec((0.5, -0.3j, 0.2 + 0.7j))]
    a, b, c, d = _blaschke_realization(specs)
    assert a.shape == (3, 4, 4) and b.shape == c.shape == (3, 4)
    for i, spec in enumerate(specs):
        pad = slice(spec.order, None)
        assert np.array_equal(a[i, pad], -np.eye(4)[pad])
        assert not (a[i, :, pad] + np.eye(4)[:, pad]).any()
        assert not b[i, pad].any() and not c[i, pad].any()
    rows = _realization_series(a, b, c, d, 40)
    for row, spec in zip(rows, specs):
        np.testing.assert_allclose(row, blaschke_reference(spec, 40), rtol=0, atol=EXPANSION_ATOL)
    assert np.array_equal(rows[0], np.eye(1, 41)[0])
    assert np.array_equal(rows[1], 1j * np.eye(1, 41, 1)[0])


def blaschke_realization_loop(spec):
    """The realization of one spec at its own order, unpadded, section
    by section in Python scalars: _blaschke_realization's reference."""
    k = spec.order
    a = np.zeros((1, k, k), dtype=np.complex128)
    b = np.zeros((1, k), dtype=np.complex128)
    ci, di = [], spec.rotation
    for j, zero in enumerate(spec.zeros):
        s = math.sqrt(1.0 - abs(zero) ** 2)
        a[0, j, :j] = [s * x for x in ci]
        a[0, j, j] = zero.conjugate()
        b[0, j] = s * di
        ci = [-zero * x for x in ci] + [s]
        di = -zero * di
    return a, b, np.array([ci], dtype=np.complex128).reshape(1, k), np.array([di])


def drawn_rows(rng, count):
    """count random specs of orders 1..4, origin-fixed or not."""
    return [random_blaschke_spec(rng, fix_origin=bool(rng.integers(2))) for _ in range(count)]


@pytest.mark.parametrize("head", (False, True))
@pytest.mark.parametrize("seed", range(4))
def test_a_padded_row_has_its_bits_whatever_rows_share_its_call(seed, head):
    # rows of orders 1..4 realized and expanded among shuffled
    # neighbours, among rows of other orders only, or alone: every row's
    # coefficients are the same bits in each call, and match its
    # unpadded realization (the loop above) within EXPANSION_ATOL
    rng = np.random.default_rng([seed, head])
    rows = drawn_rows(rng, 40)
    rows = [BlaschkeSpec((0.0,) + spec.zeros[1:], spec.rotation) if head else spec
            for spec in rows]
    alphas = 0.9 * np.sqrt(rng.uniform(size=len(rows))) * np.exp(2j * np.pi
                                                                 * rng.uniform(size=len(rows)))
    assert {spec.order for spec in rows} == {1, 2, 3, 4}

    def expanded(index, degree=64):
        realization = _blaschke_realization([rows[i] for i in index])
        if head:
            realization = _mobius_realization(alphas[index], *realization)
        return _realization_series(*realization, degree)

    together = expanded(np.arange(len(rows)))
    for i, spec in enumerate(rows):
        others = [j for j in rng.permutation(len(rows)) if rows[j].order != spec.order]
        index = np.array(others[:7] + [i] + others[7:12])
        assert np.array_equal(expanded(index)[7], together[i])
        assert np.array_equal(expanded(np.array([i]))[0], together[i])
        shuffled = rng.permutation(len(rows))
        assert np.array_equal(expanded(shuffled)[np.argmax(shuffled == i)], together[i])
        realization = blaschke_realization_loop(spec)
        if head:
            realization = _mobius_realization(alphas[i], *realization)
        np.testing.assert_allclose(together[i], _realization_series(*realization, 64)[0],
                                   rtol=0, atol=EXPANSION_ATOL)


def test_a_hand_built_row_above_the_drawn_order_expands_in_its_own_group(monkeypatch):
    # a spec of order 6 is realized at K = 6, apart from the drawn rows,
    # which share one call at K = 4; it still matches the per-factor
    # convolution, and is the same bits alone as beside drawn rows
    zeros = tuple(0.8 * np.exp(2j * np.pi * np.arange(6) / 6) * np.linspace(0.5, 1.0, 6))
    spec = BlaschkeSpec(zeros, 1j)
    calls = []
    realization = _blaschke_realization

    def recording(specs):
        calls.append(sorted(spec.order for spec in specs))
        return realization(specs)

    monkeypatch.setattr(zoo, "_blaschke_realization", recording)
    drawn = drawn_rows(np.random.default_rng(6), 5)
    out = expand([drawn[0], spec, *drawn[1:]], 64)
    assert len(calls) == 2 and [6] in calls
    np.testing.assert_allclose(out[1].coeffs[:, 0, 0], blaschke_reference(spec, 64),
                               rtol=0, atol=EXPANSION_ATOL)
    assert np.array_equal(out[1].coeffs, blaschke_series(spec, 64).coeffs)


# random_blaschke_spec(np.random.default_rng(seed)) for seeds 1, 2 and 3:
# its zeros and rotation as float.hex pairs (real, imag).  With fix_origin
# the same draws give the same spec with its first zero at 0.
DRAWN_SPECS = {
    1: ([("0x1.aa0f9f64c1f6ep-1", "-0x1.1ce3494a229f0p-2"),
         ("-0x1.0918999dbc8d7p-3", "0x1.43d7187c6f256p-2")],
        ("-0x1.c5b9d945a7c68p-1", "0x1.da745317a43f3p-2")),
    2: ([("-0x1.0e7ce90ecf6eap-4", "-0x1.f2f2d6a6d3ca4p-2"),
         ("0x1.3c4d7db205149p-2", "0x1.808c9a30e8a33p-1"),
         ("0x1.06cd3e4cab0eap-2", "0x1.7b8d58c6dbb1bp-4"),
         ("-0x1.be305fe2280f2p-4", "0x1.609478ab638fdp-1")],
        ("-0x1.19479ec6ca331p-1", "-0x1.abd0a5467d566p-1")),
    3: ([("-0x1.997847b8918ddp-2", "0x1.6de38205af8eep-3"),
         ("-0x1.98e989871fb65p-1", "0x1.b1165240b6b20p-4"),
         ("0x1.79c11a377dc36p-2", "0x1.288bdf23de491p-1"),
         ("-0x1.b5b6205f86f7fp-6", "-0x1.196c8771feac7p-2")],
        ("0x1.82de603c596fap-1", "0x1.4f6018a9d209ap-1")),
}
# draw_schur(np.random.default_rng(seed), 3, scalar_head=True).alpha0
DRAWN_ALPHA0 = {
    1: ("-0x1.010883087386fp-5", "0x1.9e741a59b7164p-2"),
    2: ("0x1.bb1244a25e8b7p-3", "0x1.0a3ee7ed09711p-1"),
    3: ("-0x1.97e2004a5f9a2p-3", "0x1.72b89a9f7f887p-1"),
}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_the_draw_stream_is_pinned(seed):
    # a rewrite of the draws must keep every bit of them, or every
    # campaign moves; a spec built by hand is still validated
    zeros, rotation = DRAWN_SPECS[seed]
    for fix_origin in (False, True):
        spec = random_blaschke_spec(np.random.default_rng(seed), fix_origin=fix_origin)
        expected = [("0x0.0p+0", "0x0.0p+0")] + zeros[1:] if fix_origin else zeros
        assert [bits(a) for a in spec.zeros] == expected
        assert bits(spec.rotation) == rotation
    draw = draw_schur(np.random.default_rng(seed), 3, scalar_head=True)
    assert bits(draw.alpha0) == DRAWN_ALPHA0[seed]
    with pytest.raises(ValueError, match="zeros"):
        BlaschkeSpec((1.0,))
    with pytest.raises(ValueError, match="rotation"):
        BlaschkeSpec((0.5,), rotation=1.0 + 1e-6)


def rows_per_matmul(n1, m, d):
    """_block_product's rule: the most block rows whose matmul stays
    below _MATMUL_LIMIT multiply-adds, at least one."""
    return max(1, min(n1, (_MATMUL_LIMIT - 1) // (m * d * n1 * d)))


def block_product_one_row(fa, ga):
    """_block_product with one block row per matmul, fa_i @ [g_0 ... g_{n-i}]."""
    n1, m, d = fa.shape
    row = ga.transpose(1, 0, 2).reshape(d, n1 * d)
    acc = np.zeros((m, n1 * d), dtype=np.complex128)
    for i in range(n1):
        acc[:, i * d :] += fa[i] @ row[:, : (n1 - i) * d]
    return acc.reshape(m, n1, d).transpose(1, 0, 2)


def block_product_reference(fa, ga):
    """_block_product by mul_reference, one d x d block of fa at a time."""
    d = fa.shape[2]
    g = MatrixSeries(ga)
    return np.concatenate([mul_reference(MatrixSeries(fa[:, j : j + d]), g)
                           for j in range(0, fa.shape[1], d)], axis=1)


def _one_matmul_limit(m, d):
    """The largest n + 1 whose block rows all fit in one matmul."""
    n1 = 1
    while rows_per_matmul(n1 + 1, m, d) == n1 + 1:
        n1 += 1
    return n1


@pytest.mark.parametrize("d", (1, 2, 3, 8))
@pytest.mark.parametrize("stacked", (1, 7))
def test_block_product_where_the_rows_per_matmul_change(d, stacked):
    # n + 1 around the largest size c done in one matmul, and (65, 21, 3),
    # the shape of build_polyanalytic's product at p = 8
    m = stacked * d
    c = _one_matmul_limit(m, d)
    assert rows_per_matmul(c + 1, m, d) < c + 1
    sizes = sorted({1, c - 1, c, c + 1, 2 * c + 1} - {0})
    if (m, d) == (21, 3):
        sizes.append(65)
    rng = np.random.default_rng([d, stacked])
    for n1 in sizes:
        fa, ga = random_coeffs(rng, (n1, m, d)), random_coeffs(rng, (n1, d, d))
        out = _block_product(fa, ga)
        assert_close(out, block_product_reference(fa, ga))
        if rows_per_matmul(n1, m, d) == 1:
            assert np.array_equal(out, block_product_one_row(fa, ga))


def block_product_sliding_window(fa, ga):
    """_block_product with its strip made by sliding_window_view: the
    reference for the strip's np.ndarray view."""
    n1, m, d = fa.shape
    c = rows_per_matmul(n1, m, d)
    padded = np.zeros((d, (n1 + c - 1) * d), dtype=np.complex128)
    padded[:, (c - 1) * d :] = ga.transpose(1, 0, 2).reshape(d, n1 * d)
    windows = np.lib.stride_tricks.sliding_window_view(padded, n1 * d, axis=1)
    strip = windows[:, (c - 1) * d :: -d].transpose(1, 0, 2).reshape(c * d, n1 * d)
    groups = np.zeros((-(-n1 // c) * c, m, d), dtype=np.complex128)
    groups[:n1] = fa
    groups = groups.reshape(-1, c, m, d).transpose(0, 2, 1, 3).reshape(-1, m, c * d)
    acc = np.zeros((m, n1 * d), dtype=np.complex128)
    for j, group in enumerate(groups):
        acc[:, j * c * d :] += group @ strip[:, : (n1 - j * c) * d]
    return acc.reshape(m, n1, d).transpose(1, 0, 2)


@pytest.mark.parametrize("shape", [(65, 3, 3), (65, 6, 3), (65, 21, 3), (65, 2, 2), (9, 4, 2),
                                   (33, 1, 1), (2, 3, 3)])
def test_block_product_strip_is_the_sliding_window_bit_for_bit(shape):
    # shapes that take several rows per matmul, so the strip has c > 1
    # shifted windows: dim 3, degree 64 (analytic-d3's mul), the layer
    # stacks of build_polyanalytic at p = 3 and p = 8, and small ones
    n1, m, d = shape
    assert rows_per_matmul(n1, m, d) > 1
    rng = np.random.default_rng(n1 * m * d)
    fa, ga = random_coeffs(rng, shape), random_coeffs(rng, (n1, d, d))
    out = _block_product(fa, ga)
    assert out.tobytes() == block_product_sliding_window(fa, ga).tobytes()


@pytest.mark.parametrize("shape", [(129, 8, 8), (129, 56, 8), (65, 63, 3)])
def test_block_product_is_the_one_row_loop_where_one_row_fills_a_matmul(shape):
    # dim 8, degree 128 (wide-d8's mul) and larger stacks take one row per
    # matmul, the loop's own matmuls, so the bits are the loop's
    n1, m, d = shape
    assert rows_per_matmul(n1, m, d) == 1
    rng = np.random.default_rng(n1 * m)
    fa, ga = random_coeffs(rng, shape), random_coeffs(rng, (n1, d, d))
    out = _block_product(fa, ga)
    assert np.array_equal(out, block_product_one_row(fa, ga))
    assert_close(out, block_product_reference(fa, ga))


@pytest.mark.parametrize("d", (1, 2, 3, 4, 8))
@pytest.mark.parametrize("stacked", (1, 2, 3, 4, 7))
def test_rows_per_matmul_keep_every_matmul_below_the_limit(d, stacked):
    # a zgemm of _MATMUL_LIMIT multiply-adds or more goes to OpenBLAS's
    # second thread; the matmuls of several rows must stay below it
    m = stacked * d
    for n1 in range(1, 260):
        c = rows_per_matmul(n1, m, d)
        assert 1 <= c <= n1
        if c > 1:
            assert c * m * d * n1 * d < _MATMUL_LIMIT


def test_rows_per_matmul_at_the_benchmark_shapes():
    # (64, 4, 4) and (128, 2, 2), where c m d n1 d could equal the limit,
    # and the benchmark's shapes, general and on the d = 1 path
    expected = {(64, 4, 4): 15, (128, 2, 2): 63,
                (65, 3, 3): 37, (64, 6, 3): 18, (64, 12, 3): 9, (129, 8, 8): 1,
                (65, 9, 1): 65, (64, 18, 1): 56, (64, 36, 1): 28, (129, 64, 1): 7}
    assert {shape: rows_per_matmul(*shape) for shape in expected} == expected


@pytest.mark.parametrize("shape", [(64, 4, 4), (128, 2, 2)])
def test_block_product_rows_at_the_limit(shape):
    # one row fewer than the limit would allow with equality: the
    # product's bits are those of the strip of rows_per_matmul rows
    n1, m, d = shape
    rng = np.random.default_rng(n1 * d)
    fa, ga = random_coeffs(rng, shape), random_coeffs(rng, (n1, d, d))
    out = _block_product(fa, ga)
    assert out.tobytes() == block_product_sliding_window(fa, ga).tobytes()
    assert_close(out, block_product_reference(fa, ga))


def scalar_identity_stack(s, d):
    """Coefficients s_j I of shape (n+1, d, d)."""
    return s[:, None, None] * np.eye(d)


@pytest.mark.parametrize("shape", [(65, 3, 3), (64, 6, 3), (64, 12, 3), (129, 8, 8),
                                   (33, 2, 2), (1, 3, 3), (1, 8, 8)])
def test_block_product_of_scalar_times_identity(shape):
    # quasi's mul and the poly layers' product at the benchmark's shapes
    # and small ones: a (n+1, 1, 1) right operand is s_j I
    n1, m, d = shape
    rng = np.random.default_rng([n1, m, d])
    fa, s = random_coeffs(rng, shape), random_coeffs(rng, n1)
    out = _block_product(fa, s.reshape(n1, 1, 1))
    assert_close(out, block_product_reference(fa, scalar_identity_stack(s, d)))


@SETTINGS
@given(seeds, st.sampled_from((2, 3, 8)), degrees, degrees)
def test_mul_by_scalar_times_identity_matches_double_loop(seed, dim, f_degree, g_degree):
    rng = np.random.default_rng(seed)
    f = MatrixSeries(random_coeffs(rng, (f_degree + 1, dim, dim)))
    s = random_coeffs(rng, g_degree + 1)
    product = mul(f, scalar_series(s))
    assert product.dim == dim
    assert_close(product.coeffs, mul_reference(f, MatrixSeries(scalar_identity_stack(s, dim))))


@SETTINGS
@given(seeds, st.sampled_from((2, 3, 8)), st.sampled_from((1, 2, 3, 8)))
def test_mismatched_dims_raise(seed, dim, other):
    # a 1x1 right operand or base layer is s I; any other pair of dims
    # is an error, as is a 1x1 left operand times a d x d one
    rng = np.random.default_rng(seed)
    f, g = (MatrixSeries(random_coeffs(rng, (5, d, d))) for d in (dim, other))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mul(MatrixSeries(random_coeffs(rng, (5, 1, 1))), f)
    if other not in (1, dim):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mul(f, g)
    if other != dim:
        f0 = scalar_series([0.0, *random_coeffs(rng, 4)])
        with pytest.raises(ValueError, match="share one dim"):
            build_polyanalytic(f0, [f, g])
        with pytest.raises(ValueError, match="share one dim"):
            PolyanalyticFn((f0, f, g))


def layers_reference(f0, omegas):
    # layer l is the antiderivative of omega_l f0' that vanishes at 0
    df0 = derivative(f0)
    products = [mul(w, df0).coeffs for w in omegas]
    return [np.concatenate([np.zeros((1, f0.dim, f0.dim)),
                            c / np.arange(1.0, len(c) + 1)[:, None, None]]) for c in products]


@SETTINGS
@given(seeds, dims, st.integers(1, 40), st.lists(st.integers(0, 48), min_size=1, max_size=4))
def test_one_product_layers_match_one_product_per_layer(seed, dim, f0_degree, omega_degrees):
    rng = np.random.default_rng(seed)
    c = random_coeffs(rng, (f0_degree + 1, dim, dim))
    c[0] = 0.0
    f0 = MatrixSeries(c)
    omegas = [MatrixSeries(random_coeffs(rng, (n + 1, dim, dim))) for n in omega_degrees]
    fn = build_polyanalytic(f0, omegas)
    assert fn.p == len(omegas) + 1
    assert fn.components[0] is f0
    for layer, expected in zip(fn.components[1:], layers_reference(f0, omegas)):
        assert layer.growth is None
        assert_close(layer.coeffs, expected)


@SETTINGS
@given(seeds, st.sampled_from((2, 3, 8)), st.integers(1, 40),
       st.lists(st.integers(0, 48), min_size=1, max_size=4))
def test_one_product_layers_of_a_scalar_base(seed, dim, f0_degree, omega_degrees):
    # a 1x1 base layer (a model target's composition) gives the layers
    # of the same base as s I
    rng = np.random.default_rng(seed)
    s = random_coeffs(rng, f0_degree + 1)
    s[0] = 0.0
    omegas = [MatrixSeries(random_coeffs(rng, (n + 1, dim, dim))) for n in omega_degrees]
    fn = build_polyanalytic(scalar_series(s), omegas)
    expected = build_polyanalytic(MatrixSeries(scalar_identity_stack(s, dim)), omegas)
    assert fn.components[0].dim == 1
    for layer, want in zip(fn.components[1:], expected.components[1:]):
        assert layer.growth is None
        assert_close(layer.coeffs, want.coeffs)


@pytest.mark.parametrize("omega_degrees",
                         [(64,), (64, 64, 64, 64), (64, 20, 100, 3), (64,) * 7])
def test_one_product_layers_at_campaign_sizes(omega_degrees):
    # p = 2, 5 and 8 at the campaigns' dim 3 and degree 64, and ratio
    # functions below, at and above the base layer's degree
    f0 = gen_schur_matrix(5, 3, 64, fix_origin=True)
    omegas = [gen_schur_matrix([6, i], 3, n, scalar_head=True) for i, n in enumerate(omega_degrees)]
    fn = build_polyanalytic(f0, omegas)
    degrees = [layer.degree for layer in fn.components[1:]]
    assert degrees == [min(n, 63) + 1 for n in omega_degrees]
    for layer, expected in zip(fn.components[1:], layers_reference(f0, omegas)):
        assert_close(layer.coeffs, expected)
