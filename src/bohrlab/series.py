"""Truncated power series with matrix coefficients and certified Bohr sums.

A series stores coefficients A_0..A_N exactly and, optionally, a tail
certificate: a constant C with ||A_n|| <= C for every n > N.  The
certificate is what turns a truncated Bohr sum into a genuine two-sided
enclosure of sum_n ||A_n|| r^n:

    lo = sum_{n<=N} ||A_n|| r^n,   hi = lo + C r^(N+1) / (1 - r).

Operations that cannot propagate a sound certificate drop it; a sum
built without one has hi == lo and is flagged uncertified, even at
r = 0, where the truncation is exact.  Majorant.bohr is the one public
Bohr sum, for a series and for a layered function alike.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .opmat import NumericalError, op_norms

__all__ = [
    "MatrixSeries",
    "Majorant",
    "scalar_series",
    "mul",
    "compose",
    "derivative",
    "with_coeff_bound",
    "majorant",
]

@dataclasses.dataclass(frozen=True, eq=False)
class MatrixSeries:
    """Coefficients A_0..A_N of sum_n A_n z^n, plus an optional tail bound.

    coeffs has shape (N+1, d, d); the array is copied on construction
    and frozen.  coeff_bound,
    when present, asserts ||A_n|| <= coeff_bound for all n > N (the
    stored coefficients are exact and need no bound).
    """

    coeffs: np.ndarray
    coeff_bound: float | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[1] != c.shape[2] or c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError(f"coeffs must have shape (N+1, d, d), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("series coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.coeff_bound is not None:
            b = float(self.coeff_bound)
            if not math.isfinite(b) or b < 0.0:
                raise ValueError("coeff_bound must be finite and nonnegative")
            object.__setattr__(self, "coeff_bound", b)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def coeff(self, n: int) -> np.ndarray:
        """Coefficient A_n (read-only view)."""
        if not 0 <= n <= self.degree:
            raise IndexError(f"coefficient index {n} outside 0..{self.degree}")
        return self.coeffs[n]

    def eval(self, z: complex) -> np.ndarray:
        """Evaluate the stored polynomial part at z."""
        powers = np.asarray(z, dtype=np.complex128) ** np.arange(self.degree + 1)
        return np.tensordot(powers, self.coeffs, axes=(0, 0))


def scalar_series(values, coeff_bound: float | None = None) -> MatrixSeries:
    """Series with 1x1 coefficients taken from a sequence of scalars."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("scalar series needs a one-dimensional coefficient list")
    return MatrixSeries(v.reshape(-1, 1, 1), coeff_bound)


def with_coeff_bound(f: MatrixSeries, bound: float | None) -> MatrixSeries:
    """Replace the tail certificate.

    This is an assertion by the caller, typically from structural
    knowledge of how f was produced (composition with a bounded target,
    say), not something the arithmetic can check.
    """
    return MatrixSeries(f.coeffs, bound)


def mul(f: MatrixSeries, g: MatrixSeries) -> MatrixSeries:
    """Cauchy product, truncated to n = min(deg f, deg g).

    For dim 1 this is one np.convolve; for dim d > 1 it is block matmuls
    of several coefficients at a time (_block_product).  When every
    coefficient of g is a scalar times I, as for quasi's compositions
    with the convex and starlike model targets, the product is entrywise
    and runs as d*d scalar products (_block_product's d = 1 path).

    The product's tail mixes truncated and certified parts, so no sound
    constant bound survives; the result carries none.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    n, d = min(f.degree, g.degree), f.dim
    fa, ga = f.coeffs[: n + 1], g.coeffs[: n + 1]
    if d == 1:
        out = np.convolve(fa[:, 0, 0], ga[:, 0, 0])[: n + 1].reshape(-1, 1, 1)
    else:
        out = _block_product(fa, ga)
    return MatrixSeries(out, None)


# Multiply-adds per matmul in _block_product, which keeps each matmul
# below it.  At this size and above the OpenBLAS of numpy's wheels
# (0.3.31) hands a zgemm to a second thread, which busy-waits between
# calls and costs more than it saves on these products.
_MATMUL_LIMIT = 2**16


def _block_product(fa: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product of coefficient stacks: fa of shape
    (n+1, m, d) and ga of shape (n+1, d, d) give out_k = sum_{i+j=k}
    fa_i @ ga_j, of shape (n+1, m, d).

    Each 2-D matmul takes c block rows [fa_i ... fa_{i+c-1}] of fa, side
    by side, times the block-Toeplitz strip of ga whose row r is
    [0 ... 0 g_0 ... g_{n-i-r}] (r zero blocks).  It yields every
    product fa_{i+r} g_j that lands at degree i + r + j <= n, and the
    results are summed at their offsets; zero rows fill the last group
    of fa.  The strip is c shifted windows of one zero-padded block row,
    one view made by np.ndarray (not as_strided, which leaves a peak-RSS
    step; see compose), and each matmul reads its leading columns.  c is
    the most rows whose matmul stays below _MATMUL_LIMIT multiply-adds,
    and at least 1: small matmuls cost more in per-call overhead than in
    arithmetic.  At dim 8, degree 128 c is 1, and the matmuls are the
    one-row products fa_i @ [g_0 ... g_{n-i}].  A stack of m/d matrices
    per coefficient (m > d) multiplies each of them by g in the same
    matmuls.

    When every ga_j is exactly s_j I (off-diagonal entries zero, the
    diagonal entries equal), as for compositions with the convex and
    starlike model targets (quasi's g(phi), and f_0' of the poly-convex
    and poly-starlike base layers), the product is this kernel at
    d = 1: s_j I commutes with fa_i, so out_k = sum_{i+j=k} s_j fa_i
    entry by entry, the scalar product of each of the m*d entries of fa
    with s.  In exact arithmetic that is the general path's sum, whose
    other terms are products with zeros; in floats its last bits can
    differ.  The check is exact: at odd d, compose's zgemm can round the
    starlike model's last diagonal entry apart from the others, and such
    a ga takes the general path.
    """
    n1, m, d = fa.shape
    if d > 1 and (ga == ga[:, :1, :1] * np.eye(d)).all():
        return _block_product(fa.reshape(n1, m * d, 1), ga[:, :1, :1]).reshape(n1, m, d)
    c = max(1, min(n1, (_MATMUL_LIMIT - 1) // (m * d * n1 * d)))
    padded = np.zeros((d, (n1 + c - 1) * d), dtype=np.complex128)
    padded[:, (c - 1) * d :] = ga.transpose(1, 0, 2).reshape(d, n1 * d)
    # window[r, a, j] = padded[a, (c - 1 - r) d + j], as compose's window
    window = np.ndarray((c, d, n1 * d), np.complex128, padded, (c - 1) * d * 16,
                        (-d * 16, padded.strides[0], 16))
    strip = window.reshape(c * d, n1 * d)
    # fa as groups of c block rows side by side, zero rows filling the last
    groups = np.zeros((-(-n1 // c) * c, m, d), dtype=np.complex128)
    groups[:n1] = fa
    groups = groups.reshape(-1, c, m, d).transpose(0, 2, 1, 3).reshape(-1, m, c * d)
    acc = np.zeros((m, n1 * d), dtype=np.complex128)
    for j, group in enumerate(groups):
        acc[:, j * c * d :] += group @ strip[:, : (n1 - j * c) * d]
    return acc.reshape(m, n1, d).transpose(1, 0, 2)


def compose(g: MatrixSeries, phi: MatrixSeries) -> MatrixSeries:
    """Coefficients of g(phi(z)) through degree n = min(deg g, deg phi).

    phi must be scalar (dim 1) with constant term exactly zero, so that
    phi^k contributes nothing below degree k and the truncated powers
    determine the output coefficients exactly.

    The powers phi^0..phi^n are built by doubling: once phi^1..phi^m are
    known, phi^(m+i) = phi^m phi^i for i <= m is one matmul of those
    powers with the triangular Toeplitz matrix of phi^m, so about
    log2(n) matmuls in all.  Each matmul computes only the coefficients
    of degree m+1..n, which are all that can be nonzero; the
    coefficients of phi^k below degree k are never written, so they are
    exact zeros.  The Toeplitz matrices are copies of one window over a
    zero-padded buffer, made once per call by np.ndarray (by as_strided
    it left a 0.9 MB peak-RSS step within 800 poly-d3 rounds).  The
    output is one more matmul, of the powers with g's coefficients.

    No tail certificate survives in general; reattach one with
    with_coeff_bound when the structure of g and phi justifies it.
    """
    if phi.dim != 1:
        raise ValueError("inner function must be scalar (dim 1)")
    if phi.coeffs[0, 0, 0] != 0:
        raise ValueError("inner function must have constant term exactly zero")
    n = min(g.degree, phi.degree)
    # powers[k] = coefficients of phi(z)^k through degree n, zero below
    # degree k; phi^k for k > n vanishes through degree n, so g's later
    # coefficients drop out
    powers = np.zeros((n + 1, n + 1), dtype=np.complex128)
    powers[0, 0] = 1.0
    if n >= 1:
        powers[1] = phi.coeffs[: n + 1, 0, 0]
    # window[i, j] = padded[n - i + j], and padded[:n] stays zero
    padded = np.zeros(2 * n, dtype=np.complex128)
    window = np.ndarray((n, n), np.complex128, padded, n * 16, (-16, 16))
    m = 1
    while m < n:
        top, size = min(2 * m, n), n - m
        # with c = coefficients m..n-1 of phi^m, window[:size, :size] is t[i, j] =
        # c[j - i], and row i - 1 of the product is phi^(m+i)'s degrees m+1..n
        padded[n : n + size] = powers[m, m:n]
        np.matmul(powers[1 : top - m + 1, 1 : size + 1], window[:size, :size].copy(),
                  out=powers[m + 1 : top + 1, m + 1 :])
        m = top
    out = powers.T @ g.coeffs[: n + 1].reshape(n + 1, -1)
    return MatrixSeries(out.reshape(n + 1, g.dim, g.dim), None)


def derivative(f: MatrixSeries) -> MatrixSeries:
    """Termwise derivative; degree drops by one (constants map to 0).

    The derivative of a bounded tail is not bounded by a constant, so
    the certificate is dropped.
    """
    if f.degree == 0:
        return MatrixSeries(np.zeros((1, f.dim, f.dim), dtype=np.complex128), None)
    n = np.arange(1, f.degree + 1, dtype=np.float64)
    return MatrixSeries(f.coeffs[1:] * n[:, None, None], None)


@dataclasses.dataclass(frozen=True, eq=False)
class Majorant:
    """Coefficient-norm profile of a series or a layered function: one
    (norms, tail_bound) pair per layer, norms = ||A_0||..||A_N|| of the
    layer and tail_bound its C or None.  A series is its one layer."""

    layers: tuple

    def __post_init__(self):
        layers = []
        for norms, tail_bound in self.layers:
            v = np.array(norms, dtype=np.float64)
            if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError("majorant norms must be a nonnegative float vector")
            v.setflags(write=False)
            if tail_bound is not None:
                tail_bound = float(tail_bound)
                if not math.isfinite(tail_bound) or tail_bound < 0.0:
                    raise ValueError("tail_bound must be finite and nonnegative")
            layers.append((v, tail_bound))
        if not layers:
            raise ValueError("a majorant needs at least one layer")
        object.__setattr__(self, "layers", tuple(layers))

    def bohr(self, radii) -> tuple:
        """(lo, hi, certified): enclosures of sum_l r^l * (Bohr sum of
        layer l) at every radius of a grid in [0, 1), from _BohrGrid's
        one formula; certified when every layer has a tail bound.  Each
        radius gets the same bits whatever grid it sits in."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            lo, hi, certified = _BohrGrid(radii).layered(self.layers)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NumericalError("a Bohr sum is not finite: it overflows")
        return lo, hi, certified


class _BohrGrid:
    """A grid of radii in [0, 1) and the one formula for Bohr sums on it.

    The Vandermonde table [r^n] and r^(N+1) for N + 1 norms are built at
    the first sum that needs them and kept, so a campaign that sums many
    series on one grid builds them once.
    """

    def __init__(self, radii):
        r = np.asarray(radii, dtype=np.float64)
        if r.ndim != 1:
            raise ValueError("radii must form a one-dimensional array")
        outside = r[~((r >= 0.0) & (r < 1.0))]
        if outside.size:
            raise ValueError(f"radius must lie in [0, 1), got {float(outside[0])}")
        self.r = r
        self._tables = {}

    def bohr(self, norms: np.ndarray, tail_bound: float | None) -> tuple:
        """(lo, hi) of sum_n norms[n] r^n at every radius.

        lo is one matvec of the Vandermonde table with the norms; hi adds
        the geometric tail C r^(N+1) / (1 - r) when a tail bound C is
        present and equals lo otherwise.  The tail vanishes at r = 0,
        where the truncated value is exact regardless.  The matvec is an
        einsum rather than BLAS, whose summation order depends on the
        number of rows, so each radius gets the same bits whatever grid
        it sits in.
        """
        size = norms.size
        table = self._tables.get(size)
        if table is None:
            table = self._tables[size] = (self.r[:, None] ** np.arange(size), self.r**size)
        lo = np.einsum("rn,n->r", table[0], norms)
        if tail_bound is None:
            return lo, lo
        return lo, lo + tail_bound * table[1] / (1.0 - self.r)

    def layered(self, layers) -> tuple:
        """(lo, hi, certified) of sum_l r^l * (Bohr sum of layer l) at
        every radius, for layers given as (norms, tail_bound) pairs:
        summed layer by layer, certified when every layer has a tail
        bound."""
        lo = hi = 0.0
        certified = True
        for l, (norms, tail_bound) in enumerate(layers):
            layer_lo, layer_hi = self.bohr(norms, tail_bound)
            lo, hi = lo + self.r**l * layer_lo, hi + self.r**l * layer_hi
            certified = certified and tail_bound is not None
        return lo, hi, certified


def _layers(fn) -> tuple:
    """The layers of fn: a MatrixSeries is its one layer, a layered
    function (zoo.PolyanalyticFn) has its components."""
    return (fn,) if isinstance(fn, MatrixSeries) else fn.components


def majorant(fn) -> Majorant:
    """Coefficient-norm profile of a MatrixSeries or a PolyanalyticFn
    (one batched eigensolve per layer)."""
    return Majorant(tuple((op_norms(f.coeffs), f.coeff_bound) for f in _layers(fn)))
