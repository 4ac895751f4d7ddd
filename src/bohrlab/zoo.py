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

import dataclasses

import numpy as np

from .opmat import op_norm
from .series import (
    MatrixSeries,
    RInterval,
    bohr_sum,
    derivative,
    integrate0,
    mul,
    scalar_series,
)

__all__ = [
    "BlaschkeSpec",
    "CaratheodoryScalar",
    "PolyanalyticFn",
    "blaschke_series",
    "random_blaschke_spec",
    "haar_unitary",
    "gen_schur_matrix",
    "mobius_transfer",
    "mobius_compose",
    "mobius_extremal",
    "convex_model",
    "starlike_from_q",
    "build_polyanalytic",
    "bohr_sum_poly",
    "eval_polyanalytic",
    "polyanalytic_to_json",
    "polyanalytic_from_json",
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
    """Taylor coefficients of the Blaschke product through ``degree``.

    Each factor expands by geometric series,

        (z - a) / (1 - conj(a) z) = -a + (1 - |a|^2) sum_{n>=1} conj(a)^(n-1) z^n,

    and the product accumulates by truncated convolution.  The result
    is a Schur function, so it carries tail certificate 1.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
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
    return scalar_series(coeffs, coeff_bound=1.0)


def random_blaschke_spec(rng, max_zeros: int = 4, fix_origin: bool = False,
                         max_radius: float = 0.9) -> BlaschkeSpec:
    """Random spec: 1..max_zeros zeros uniform on |a| <= max_radius,
    uniform rotation; with fix_origin the first zero is pinned at 0."""
    rng = np.random.default_rng(rng)
    count = int(rng.integers(1, max_zeros + 1))
    radii = max_radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    zeros = list(radii * np.exp(1j * angles))
    if fix_origin:
        zeros[0] = 0.0
    rotation = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return BlaschkeSpec(tuple(zeros), rotation)


def haar_unitary(rng, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix,
    with the R diagonal phase fixed so the distribution is uniform."""
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) < 1e-300, 1.0, d / np.abs(d))
    return q * d


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


def mobius_compose(alpha: complex, b: MatrixSeries) -> MatrixSeries:
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


def gen_schur_matrix(seed, dim: int, degree: int, *, fix_origin: bool = False,
                     scalar_head: bool = False) -> MatrixSeries:
    """Random matrix Schur function: U diag(b_1..b_d) V with U, V unitary
    and each b_i a random Blaschke product.  ||f(z)|| <= 1 on the disk by
    construction, so every coefficient norm is <= 1 (tail bound 1).

    fix_origin: each b_i vanishes at 0, so A_0 is exactly zero.
    scalar_head: V = U*, and each b_i is a common disk automorphism
    m(w) = (alpha_0 + w) / (1 + conj(alpha_0) w) of an origin-fixed
    Blaschke product, so f(0) = alpha_0 I for a single random
    |alpha_0| <= 0.9.  m(b_i) comes from mobius_compose, one series
    division; it is again a Schur function, so the tail bound 1 still
    holds.
    """
    if fix_origin and scalar_head:
        raise ValueError("fix_origin and scalar_head are mutually exclusive")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
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
        b = blaschke_series(spec, degree)
        if scalar_head:
            b = mobius_compose(alpha0, b)
        diag[:, i] = b.coeffs[:, 0, 0]
    coeffs = np.einsum("ab,nb,bc->nac", u, diag, v)
    return MatrixSeries(coeffs, coeff_bound=1.0)


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

    def coefficients(self, degree: int) -> np.ndarray:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        q = np.empty(degree + 1, dtype=np.complex128)
        q[0] = 1.0
        if degree >= 1:
            q[1:] = 2.0 * self.u ** np.arange(1, degree + 1)
        return q


def starlike_from_q(q: CaratheodoryScalar, dim: int, degree: int) -> MatrixSeries:
    """Normalized starlike map g with z g'(z) = q(z) g(z).

    Matching coefficients gives g_1 = I and the recurrence

        (n - 1) g_n = sum_{j=1}^{n-1} q_j g_{n-j},  n >= 2,

    with scalar q_j acting by multiplication.  For u = 1 (the Koebe
    data q = (1+z)/(1-z)) this yields g_n = n I; coefficients grow
    linearly, so no constant tail bound is attached.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    qs = q.coefficients(degree)
    scal = np.zeros(degree + 1, dtype=np.complex128)
    scal[1] = 1.0
    for n in range(2, degree + 1):
        scal[n] = np.dot(qs[1:n], scal[n - 1 : 0 : -1]) / (n - 1)
    coeffs = scal[:, None, None] * np.eye(dim, dtype=np.complex128)[None]
    return MatrixSeries(coeffs, None)


@dataclasses.dataclass(frozen=True)
class PolyanalyticFn:
    """F(z) = sum_{l=0}^{p-1} conj(z)^l f_l(z) with analytic layers f_l.

    components holds (f_0, ..., f_{p-1}); k in [0, 1] records the
    derivative-ratio bound ||f_l'(z)|| <= k ||f_0'(z)|| the layers were
    built under.  A top layer that is identically zero is allowed (the
    function then has smaller true order); builders producing one
    simply document k = 0 or a vanishing ratio.
    """

    components: tuple
    k: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 2:
            raise ValueError("polyanalytic order p must be >= 2")
        if any(not isinstance(c, MatrixSeries) for c in comps):
            raise ValueError("components must be MatrixSeries")
        if any(c.dim != comps[0].dim for c in comps):
            raise ValueError("components must share one dimension")
        k = float(self.k)
        if not 0.0 <= k <= 1.0:
            raise ValueError("ratio bound k must lie in [0, 1]")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "k", k)

    @property
    def p(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def build_polyanalytic(f0: MatrixSeries, omegas, k: float) -> PolyanalyticFn:
    """Assemble F from the base layer and derivative ratios.

    Each higher layer is recovered as f_l = integral of omega_l * f_0'
    from 0, which makes the factorization f_l' = omega_l f_0' exact by
    construction and forces f_l(0) = 0.  f_0 itself must vanish at the
    origin.  k is the caller's uniform bound on ||omega_l||.
    """
    if op_norm(f0.coeff(0)) != 0.0:
        raise ValueError("base layer must vanish at the origin")
    omegas = tuple(omegas)
    if not omegas:
        raise ValueError("need at least one ratio function (order p >= 2)")
    if any(w.dim != f0.dim for w in omegas):
        raise ValueError("ratio functions must match the base dimension")
    df0 = derivative(f0)
    zero = np.zeros((f0.dim, f0.dim), dtype=np.complex128)
    layers = [f0]
    for w in omegas:
        layers.append(integrate0(mul(w, df0), zero))
    return PolyanalyticFn(tuple(layers), k)


def bohr_sum_poly(fn: PolyanalyticFn, r: float) -> RInterval:
    """Enclosure of sum_l r^l * (Bohr sum of f_l at r).

    Certified only when every layer's interval is; at r = 0 the value
    collapses to ||f_0(0)|| exactly.
    """
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    lo = hi = 0.0
    certified = True
    for l, f in enumerate(fn.components):
        iv = bohr_sum(f, r)
        w = r**l
        lo += w * iv.lo
        hi += w * iv.hi
        certified = certified and iv.certified
    return RInterval(lo, hi, certified)


def eval_polyanalytic(fn: PolyanalyticFn, z: complex) -> np.ndarray:
    """Evaluate F(z) = sum_l conj(z)^l f_l(z) from the stored layers."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("evaluation point must lie in the open unit disk")
    out = np.zeros((fn.dim, fn.dim), dtype=np.complex128)
    for l, f in enumerate(fn.components):
        out += np.conj(z) ** l * f.eval(z)
    return out


def polyanalytic_to_json(fn: PolyanalyticFn) -> dict:
    """Encode as {"p", "k", "components": [series payloads]}."""
    from .series import series_to_json

    return {
        "p": fn.p,
        "k": fn.k,
        "components": [series_to_json(f) for f in fn.components],
    }


def polyanalytic_from_json(payload: dict) -> PolyanalyticFn:
    """Inverse of polyanalytic_to_json."""
    from .series import series_from_json

    comps = tuple(series_from_json(p) for p in payload["components"])
    if len(comps) != int(payload["p"]):
        raise ValueError("component count does not match declared order")
    return PolyanalyticFn(comps, float(payload["k"]))
