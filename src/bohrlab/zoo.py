"""Generators for the function families the campaigns quantify over.

Everything returns MatrixSeries (or PolyanalyticFn built from them) with
whatever tail certificate the construction actually justifies:

* Blaschke products and Schur-class matrix functions carry bound 1,
  since every Taylor coefficient of a contraction-valued function has
  norm at most 1.
* The convex model carries its derivative bound beta.
* Starlike images built from Caratheodory data carry no constant bound
  (their coefficients grow linearly, Koebe being the extreme case).

Randomness flows through numpy Generators; a seed, a seed sequence, or
an existing Generator is accepted wherever a ``rng`` argument appears.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .series import MatrixSeries, _block_product, derivative, scalar_series

__all__ = [
    "BlaschkeSpec",
    "CaratheodoryScalar",
    "SchurDraw",
    "PolyanalyticFn",
    "blaschke_series",
    "random_blaschke_spec",
    "haar_unitary",
    "draw_schur",
    "expand",
    "gen_schur_matrix",
    "mobius_transfer",
    "mobius_extremal",
    "convex_model",
    "starlike_from_q",
    "build_polyanalytic",
]


@dataclasses.dataclass(frozen=True)
class BlaschkeSpec:
    """A finite Blaschke product: unimodular rotation times factors
    (z - a) / (1 - conj(a) z), one per zero, each zero inside the disk."""

    zeros: tuple
    rotation: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        if any(abs(a) >= 1.0 for a in zeros):
            raise ValueError("Blaschke zeros must satisfy |a| < 1")
        rot = complex(self.rotation)
        if abs(abs(rot) - 1.0) > 1e-9:
            raise ValueError("rotation must have modulus 1")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", rot)

    @property
    def order(self) -> int:
        return len(self.zeros)


def blaschke_series(spec: BlaschkeSpec, degree: int) -> MatrixSeries:
    """Taylor coefficients of the Blaschke product through ``degree``,
    expanded from its lossless realization (_blaschke_realization,
    _realization_series); this is expand of the single spec.  The result
    is a Schur function, so it carries tail certificate 1.
    """
    return expand([spec], degree)[0]


def _blaschke_realization(specs, order: int | None = None) -> tuple:
    """State-space realizations (A, B, C, D) of the given Blaschke
    products, stacked over rows: the Taylor coefficients of row i are D_i
    and C_i A_i^(n-1) B_i for n >= 1, with A of shape (rows, K, K), B and
    C of shape (rows, K), D of shape (rows,) and K the given order, by
    default the largest of the specs' orders.

    Each factor (z - a) / (1 - conj(a) z) is the first-order section
    x' = conj(a) x + s u, y = s x - a u with s = sqrt(1 - |a|^2), whose
    system matrix [[conj(a), s], [s, -a]] is unitary; the rotation scales
    the input.  The sections are chained, so the system matrix
    [[A, B], [C, D]] of the product is unitary too and ||A|| <= 1: powers
    of A never amplify rounding errors, however close the zeros lie.  A
    row of lower order is padded with zeros, states that stay at 0.
    """
    k = max(spec.order for spec in specs) if order is None else order
    a = np.zeros((len(specs), k, k), dtype=np.complex128)
    b = np.zeros((len(specs), k), dtype=np.complex128)
    c = np.zeros((len(specs), k), dtype=np.complex128)
    d = np.empty(len(specs), dtype=np.complex128)
    for i, spec in enumerate(specs):
        # chaining section j: x_j' = conj(a) x_j + s (C x + D u), and the
        # output becomes s x_j - a (C x + D u)
        ci, di = [], spec.rotation
        for j, zero in enumerate(spec.zeros):
            s = math.sqrt(1.0 - abs(zero) ** 2)
            a[i, j, :j] = [s * x for x in ci]
            a[i, j, j] = zero.conjugate()
            b[i, j] = s * di
            ci = [-zero * x for x in ci] + [s]
            di = -zero * di
        c[i, : spec.order] = ci
        d[i] = di
    return a, b, c, d


def _mobius_realization(alpha, a, b, c, d) -> tuple:
    """Realizations of m_i(f_i) for m_i(w) = (alpha_i + w) / (1 + conj(alpha_i) w),
    from realizations (A, B, C, D) of functions with f_i(0) = D_i = 0
    (shapes as _blaschke_realization's); alpha is one parameter per row,
    or a scalar shared by all rows.

    m(w) = alpha + (1 - |alpha|^2) w / (1 + conj(alpha) w), and
    w / (1 + conj(alpha) w) is f_i inside the feedback loop
    v = u - conj(alpha) w, so the state matrix becomes
    A - conj(alpha) B C, C is scaled by 1 - |alpha|^2 and D becomes
    alpha.  That state matrix is the one of the Redheffer star product of
    two unitary systems (f_i and the unitary matrix of m), so it keeps
    ||A|| <= 1.
    """
    alpha = np.full_like(d, alpha)
    # |alpha| by hypot, which rounds as abs of one complex number does;
    # numpy's vectorized complex abs can differ in the last bit
    modulus = np.hypot(alpha.real, alpha.imag)
    return (a - np.conj(alpha)[:, None, None] * b[:, :, None] * c[:, None, :], b,
            (1.0 - modulus**2)[:, None] * c, alpha)


# Coefficients per block of _realization_series.
_BLOCK = 16


def _realization_series(a, b, c, d, degree: int) -> np.ndarray:
    """Taylor coefficients 0..degree, one row per realization: D_i, then
    C_i A_i^(n-1) B_i for n >= 1 (shapes as _blaschke_realization's).

    For all rows at once, the block response R = [C; C A; ...;
    C A^(B-1); A^B] comes from log2(B) doublings (the rows C A^t for
    t < 2m are those for t < m and the same times A^m, and A^(2m) is
    A^m squared); each block of B coefficients after the constant is then
    one batched matvec R x with the state x = A^(n-1) B, whose last K
    entries are the next block's state.  For ||A|| <= 1 every entry of R
    is at most 1, so the expansion is as accurate as its inputs.  The
    recurrence on the coefficients of the denominator prod (1 - conj(a) z)
    is not: its impulse response grows before it decays, and with four
    zeros within 1e-3 of each other at modulus 0.9 it erred by up to
    1.4e-11 at degree 256 (blocked; 4.8e-13 step by step).
    """
    response, power = c[:, None, :], a
    while response.shape[1] < _BLOCK:
        response = np.concatenate([response, response @ power], axis=1)
        power = power @ power
    response = np.concatenate([response, power], axis=1)
    out = np.empty((b.shape[0], 1 + _BLOCK * -(-degree // _BLOCK)), dtype=np.complex128)
    out[:, 0] = d
    state = b[:, :, None]
    for n in range(1, degree + 1, _BLOCK):
        y = response @ state
        out[:, n : n + _BLOCK] = y[:, :_BLOCK, 0]
        state = y[:, _BLOCK:]
    return out[:, : degree + 1]


def random_blaschke_spec(rng, fix_origin: bool = False) -> BlaschkeSpec:
    """Random spec: 1..4 zeros uniform on |a| <= 0.9, uniform rotation;
    with fix_origin the first zero is pinned at 0."""
    rng = np.random.default_rng(rng)
    count = int(rng.integers(1, 5))
    u = rng.uniform(0.0, 1.0, count).tolist()
    angles = rng.uniform(0.0, 2.0 * math.pi, count).tolist()
    zeros = [0.9 * math.sqrt(x) * cmath.exp(1j * a) for x, a in zip(u, angles)]
    if fix_origin:
        zeros[0] = 0.0
    rotation = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return BlaschkeSpec(tuple(zeros), rotation)


def haar_unitary(rng, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix,
    with the R diagonal phase fixed so the distribution is uniform."""
    rng = np.random.default_rng(rng)
    return _haar_from_gaussian(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """The Q factors of a stack of complex Gaussian matrices (..., d, d),
    each column times the phase of R's diagonal entry, so that the
    distribution is uniform."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) < 1e-300, 1.0, d / np.abs(d))
    return q * d[..., None, :]


def mobius_transfer(alpha: complex, degree: int) -> MatrixSeries:
    """Disk automorphism m(w) = (alpha + w) / (1 + conj(alpha) w) as a
    scalar series in w: coefficients alpha, then
    (1 - |alpha|^2)(-conj(alpha))^(n-1).  Schur, so tail bound 1."""
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise ValueError("automorphism parameter must satisfy |alpha| < 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    coeffs = np.zeros(degree + 1, dtype=np.complex128)
    coeffs[0] = alpha
    coeffs[1:] = (1.0 - abs(alpha) ** 2) * (-np.conj(alpha)) ** np.arange(degree)
    return scalar_series(coeffs, coeff_bound=1.0)


def mobius_extremal(a: float, degree: int) -> MatrixSeries:
    """The sharpness witness (a + z) / (1 + a z) for real 0 < a < 1.

    Its Bohr sum exceeds 1 exactly for r > 1/(1 + 2a), which tends to
    the classical 1/3 as a -> 1.
    """
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError("extremal parameter must satisfy 0 < a < 1")
    return mobius_transfer(a, degree)


@dataclasses.dataclass(frozen=True, eq=False)
class SchurDraw:
    """The random draws behind one gen_schur_matrix function.

    gauss holds the complex Gaussian matrices of U, and of V unless
    alpha0 is set, shape (1 or 2, d, d); alpha0 is the scalar head (V is
    then U*), else None; specs are the d Blaschke products of the
    diagonal.  order is the state dimension the diagonal entries are
    realized with, the largest of their orders unless a caller pads
    further.  Padding changes the rounding of the expansion, not the
    function.
    """

    gauss: np.ndarray
    alpha0: complex | None
    specs: tuple
    order: int

    @property
    def dim(self) -> int:
        return len(self.specs)


def draw_schur(rng: np.random.Generator, dim: int, *, fix_origin: bool = False,
               scalar_head: bool = False) -> SchurDraw:
    """The draws of one random matrix Schur function, in gen_schur_matrix's
    order: the Gaussians of U (and of V), then alpha_0, then the d
    Blaschke specs.  expand turns it into its series."""
    if fix_origin and scalar_head:
        raise ValueError("fix_origin and scalar_head are mutually exclusive")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gauss = np.empty((1 if scalar_head else 2, dim, dim), dtype=np.complex128)
    for j in range(gauss.shape[0]):
        gauss[j] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    alpha0 = None
    if scalar_head:
        alpha0 = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    specs = tuple(random_blaschke_spec(rng, fix_origin=fix_origin or scalar_head)
                  for _ in range(dim))
    return SchurDraw(gauss, alpha0, specs, max(spec.order for spec in specs))


def expand(draws, degree: int) -> list:
    """Series through degree of Schur draws (draw_schur) and Blaschke
    specs, in the order given; all are Schur functions, so each carries
    tail certificate 1.

    The numeric work is shared by all draws.  The Blaschke rows (a
    spec's one, a Schur draw's d diagonal entries) are grouped by padded
    order and by whether they carry a scalar head, and each group is
    realized (_blaschke_realization, with _mobius_realization for a
    head, one alpha_0 per row) and expanded (_realization_series) in one
    call.  Rows of one order pass through the same matrix shapes in any
    group, so every coefficient is that of the function's own expansion;
    padding a row further would round it differently.  Then, per
    dimension, one stacked QR gives the unitaries (_haar_from_gaussian)
    and one einsum forms U diag(b_1..b_d) V.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    groups, places = {}, []
    for draw in draws:
        specs, alpha = (((draw,), None) if isinstance(draw, BlaschkeSpec)
                        else (draw.specs, draw.alpha0))
        key = (draw.order, alpha is not None)
        rows, alphas = groups.setdefault(key, ([], []))
        places.append((key, len(rows), len(rows) + len(specs)))
        rows += specs
        alphas += [alpha] * len(specs)
    series = {}
    for (order, head), (rows, alphas) in groups.items():
        realization = _blaschke_realization(rows, order)
        if head:
            realization = _mobius_realization(np.array(alphas), *realization)
        series[order, head] = _realization_series(*realization, degree)
    diags = [series[key][start:stop] for key, start, stop in places]

    out = [scalar_series(diag[0], coeff_bound=1.0) if isinstance(draw, BlaschkeSpec) else None
           for draw, diag in zip(draws, diags)]
    by_dim = {}
    for i, draw in enumerate(draws):
        if isinstance(draw, SchurDraw):
            by_dim.setdefault(draw.dim, []).append(i)
    for indices in by_dim.values():
        # U of the j-th draw is q[u[j]], and the transpose of its V is
        # transposes[v[j]]: that of the next Q factor, or conj(U) for a
        # scalar head.  V enters transposed, the layout in which the
        # einsum runs fastest; no layout changes its bits.
        gauss = np.concatenate([draws[i].gauss for i in indices])
        u = np.cumsum([0] + [len(draws[i].gauss) for i in indices[:-1]])
        v = np.where([draws[i].alpha0 is None for i in indices], u + 1, u + len(gauss))
        q = _haar_from_gaussian(gauss)
        transposes = np.concatenate([q.swapaxes(1, 2), q.conj()])
        coeffs = np.einsum("kab,kbn,kcb->knac", q[u], np.stack([diags[i] for i in indices]),
                           transposes[v])
        for i, c in zip(indices, coeffs):
            out[i] = MatrixSeries(c, coeff_bound=1.0)
    return out


def gen_schur_matrix(seed, dim: int, degree: int, *, fix_origin: bool = False,
                     scalar_head: bool = False) -> MatrixSeries:
    """Random matrix Schur function: U diag(b_1..b_d) V with U, V unitary
    and each b_i a random Blaschke product.  ||f(z)|| <= 1 on the disk by
    construction, so every coefficient norm is <= 1 (tail bound 1).

    fix_origin: each b_i vanishes at 0, so A_0 is exactly zero.
    scalar_head: V = U*, and each b_i is a common disk automorphism
    m(w) = (alpha_0 + w) / (1 + conj(alpha_0) w) of an origin-fixed
    Blaschke product, so f(0) = alpha_0 I for a single random
    |alpha_0| <= 0.9.  m(b_i) is again a Schur function, so the tail
    bound 1 still holds.

    This is expand of a single draw_schur: its d diagonal entries are
    expanded together from their lossless realizations.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    draw = draw_schur(np.random.default_rng(seed), dim, fix_origin=fix_origin,
                      scalar_head=scalar_head)
    return expand([draw], degree)[0]


def convex_model(beta: float, dim: int, degree: int) -> MatrixSeries:
    """The convex target beta * z/(1-z) * I: every nonconstant
    coefficient is beta I, with matching tail bound beta."""
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if dim < 1 or degree < 1:
        raise ValueError("convex model needs dim >= 1 and degree >= 1")
    coeffs = np.zeros((degree + 1, dim, dim), dtype=np.complex128)
    coeffs[1:] = beta * np.eye(dim)
    return MatrixSeries(coeffs, coeff_bound=beta)


@dataclasses.dataclass(frozen=True)
class CaratheodoryScalar:
    """Positive-real-part data q(z) = (1 + u z) / (1 - u z) with |u| <= 1;
    its coefficients are q_0 = 1 and q_n = 2 u^n."""

    u: complex = 1.0 + 0.0j

    def __post_init__(self):
        u = complex(self.u)
        if abs(u) > 1.0 + 1e-12:
            raise ValueError("Caratheodory parameter must satisfy |u| <= 1")
        object.__setattr__(self, "u", u)


def starlike_from_q(q: CaratheodoryScalar, dim: int, degree: int) -> MatrixSeries:
    """Normalized starlike map g with z g'(z) = q(z) g(z).

    For q = (1 + u z) / (1 - u z) the equation has the closed-form
    solution g = z / (1 - u z)^2: its logarithmic derivative is
    g'/g = 1/z + 2u / (1 - u z), so z g'/g = (1 + u z) / (1 - u z), and
    g(0) = 0, g'(0) = 1.  Matching coefficients of z g' = q g gives
    g_1 = 1 and (n - 1) g_n = sum_{j=1}^{n-1} q_j g_{n-j} for n >= 2,
    which fixes every coefficient, so this is the only normalized
    solution, and

        g_n = n u^(n-1) I.

    For u = 1 (the Koebe data q = (1+z)/(1-z)) this is g_n = n I;
    coefficients grow linearly, so no constant tail bound is attached.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n = np.arange(1, degree + 1)
    scal = np.zeros(degree + 1, dtype=np.complex128)
    scal[1:] = n * q.u ** (n - 1)
    coeffs = scal[:, None, None] * np.eye(dim, dtype=np.complex128)[None]
    return MatrixSeries(coeffs, None)


@dataclasses.dataclass(frozen=True)
class PolyanalyticFn:
    """F(z) = sum_{l=0}^{p-1} conj(z)^l f_l(z) with analytic layers f_l.

    components holds (f_0, ..., f_{p-1}); a top layer may vanish
    identically (the function then has smaller true order).
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 2:
            raise ValueError("polyanalytic order p must be >= 2")
        if any(not isinstance(c, MatrixSeries) for c in comps):
            raise ValueError("components must be MatrixSeries")
        if any(c.dim != comps[0].dim for c in comps):
            raise ValueError("components must share one dimension")
        object.__setattr__(self, "components", comps)

    @property
    def p(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def build_polyanalytic(f0: MatrixSeries, omegas) -> PolyanalyticFn:
    """Assemble F from the base layer and derivative ratios.

    Each higher layer is recovered as f_l = integral of omega_l * f_0'
    from 0, which makes the factorization f_l' = omega_l f_0' exact by
    construction and forces f_l(0) = 0; layer l has degree
    min(deg omega_l, deg f_0') + 1.  All layers come from one truncated
    product and one division.  f_0 itself must vanish at the origin.
    """
    if np.any(f0.coeffs[0] != 0):
        raise ValueError("base layer must vanish at the origin")
    omegas = tuple(omegas)
    if not omegas:
        raise ValueError("need at least one ratio function (order p >= 2)")
    if any(w.dim != f0.dim for w in omegas):
        raise ValueError("ratio functions must match the base dimension")
    df0 = derivative(f0)
    d, degrees = f0.dim, [min(w.degree, df0.degree) for w in omegas]
    n = max(degrees)
    # One product for all layers: the ratio functions, zero-padded to
    # degree n, stacked into a ((p-1)d, d) block column per coefficient.
    # Layer l is cut back to degrees[l], below which its product reads
    # only stored coefficients of omega_l, so the padding is exact.
    stack = np.zeros((n + 1, len(omegas), d, d), dtype=np.complex128)
    for l, w in enumerate(omegas):
        stack[: degrees[l] + 1, l] = w.coeffs[: degrees[l] + 1]
    prod = _block_product(stack.reshape(n + 1, -1, d), df0.coeffs[: n + 1])
    integral = np.zeros((n + 2, len(omegas), d, d), dtype=np.complex128)
    integral[1:] = (prod / np.arange(1, n + 2)[:, None, None]).reshape(n + 1, -1, d, d)
    layers = [f0] + [MatrixSeries(integral[: m + 2, l], None) for l, m in enumerate(degrees)]
    return PolyanalyticFn(tuple(layers))
