"""Truncated power series with matrix coefficients and certified Bohr sums.

A series stores coefficients A_0..A_N exactly and, optionally, a tail
certificate: a growth class (C, s), ||A_n|| <= C (n+1)^s for every n.
It turns a truncated Bohr sum into a two-sided enclosure of
sum_n ||A_n|| r^n: lo = sum_{n<=N} ||A_n|| r^n, and hi adds the class's
allowance for the terms past N (_BohrGrid.tail), C r^(N+1) / (1 - r)
at s = 0.  mul and derivative prove their result's class from their
inputs'; compose sets none.  A sum built without a class has hi == lo
and is flagged uncertified, even at r = 0, where the truncation is
exact.  Majorant.bohr is the one public Bohr sum, for a series and for
a layered function alike.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .opmat import NumericalError, op_norms

# _BohrGrid.tail sums at most this many class bounds one by one.
_MAX_SUMMED_BOUNDS = 2**12

__all__ = [
    "MatrixSeries",
    "Majorant",
    "scalar_series",
    "mul",
    "compose",
    "derivative",
    "majorant",
]

def _growth(growth) -> tuple | None:
    """growth, a class (C, s) or None, with C a float; a negative or
    non-finite C or s is a ValueError."""
    if growth is not None:
        growth = float(growth[0]), growth[1]
        if not (0.0 <= growth[0] < math.inf and 0 <= growth[1] < math.inf):
            raise ValueError(f"a growth class (C, s) needs finite C, s >= 0, got {growth!r}")
    return growth


@dataclasses.dataclass(frozen=True, eq=False)
class MatrixSeries:
    """Coefficients A_0..A_N of sum_n A_n z^n, plus an optional growth class.

    coeffs has shape (N+1, d, d); the array is copied on construction
    and frozen.  growth, when present, asserts ||A_n|| <= C (n+1)^s for
    every n, stored or not, for (C, s) = growth.
    """

    coeffs: np.ndarray
    growth: tuple | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[1] != c.shape[2] or c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError(f"coeffs must have shape (N+1, d, d), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("series coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "growth", _growth(self.growth))

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


def scalar_series(values, growth: tuple | None = None) -> MatrixSeries:
    """Series with 1x1 coefficients taken from a sequence of scalars."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("scalar series needs a one-dimensional coefficient list")
    return MatrixSeries(v.reshape(-1, 1, 1), growth)


def mul(f: MatrixSeries, g: MatrixSeries) -> MatrixSeries:
    """Cauchy product, truncated to n = min(deg f, deg g).

    g has f's dim or dim 1: a 1x1 g stands for s * I, as the convex and
    starlike model targets do (zoo), and the product is entrywise, d*d
    scalar products (_block_product's d = 1 path).  For dim 1 this is
    one np.convolve; for dim d > 1 it is block matmuls of several
    coefficients at a time (_block_product).

    The product carries a growth class when both factors do: if
    ||f_i|| <= C1 (i+1)^s1 and ||g_j|| <= C2 (j+1)^s2 for every i and
    j, then ||(fg)_n|| <= sum_{i+j=n} ||f_i|| ||g_j||, n + 1 terms each
    at most C1 C2 (n+1)^(s1+s2), so the product is in the class
    (C1 C2, s1 + s2 + 1).
    """
    if g.dim not in (1, f.dim):
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    n = min(f.degree, g.degree)
    fa, ga = f.coeffs[: n + 1], g.coeffs[: n + 1]
    if f.dim == 1:
        out = np.convolve(fa[:, 0, 0], ga[:, 0, 0])[: n + 1].reshape(-1, 1, 1)
    else:
        out = _block_product(fa, ga)
    return MatrixSeries(out, None if f.growth is None or g.growth is None else (
        f.growth[0] * g.growth[0], f.growth[1] + g.growth[1] + 1))


# Multiply-adds m*k*n of a 2-D matmul (m, k) @ (k, n) from which the
# OpenBLAS of numpy's wheels (0.3.31) hands a zgemm to a second thread,
# which busy-waits between calls and costs more than it saves on these
# products.  In a bare loop of a @ b on a 2-core VM the process CPU time
# per wall time read 1.00 from 61,440 to 65,403 multiply-adds and 1.88
# to 1.97 from 65,536 to 66,924.  Every matmul in this module goes
# through _matmul, so none of two or more rows reaches the limit.  numpy
# makes a product of one row a zgemv, which goes to the second thread
# from k*n = 64*64 entries on: compose's first doubling step is one, of
# (N - 1)^2 entries, below that at the campaigns' N <= 47.
_MATMUL_LIMIT = 2**16


def _rows_below_limit(width: int) -> int:
    """The most rows of width multiply-adds each that one matmul can take
    and stay below _MATMUL_LIMIT, and at least 1."""
    return max(1, (_MATMUL_LIMIT - 1) // width)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D a and b, into out when given, in matmuls below
    _MATMUL_LIMIT multiply-adds each, so that OpenBLAS keeps every zgemm
    on one thread.  A product below the limit is one np.matmul.  A
    larger one is split into as few blocks of rows of a as
    _rows_below_limit allows, whose sizes differ by at most one, so a
    block has one row only where three rows would reach the limit.  A
    block of two or more rows gave the unsplit one-thread product's
    entries bit for bit in every product tried (column blocks did not);
    a block of one row is a zgemv, which rounds differently."""
    if a.size * b.shape[1] < _MATMUL_LIMIT:
        return np.matmul(a, b, out=out)
    (m, k), n = a.shape, b.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    blocks = -(-m // _rows_below_limit(k * n))
    bounds = [i * m // blocks for i in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def _block_product(fa: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product of coefficient stacks: fa of shape
    (n+1, m, d) and ga of shape (n+1, d, d) give out_k = sum_{i+j=k}
    fa_i @ ga_j, of shape (n+1, m, d).  A ga of shape (n+1, 1, 1) stands
    for s_j I, which commutes with fa_i: the product is this kernel at
    d = 1 on each of the m*d entries of fa.

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
    one-block-row products fa_i @ [g_0 ... g_{n-i}]; _matmul splits the
    rows of fa_i where one block row reaches the limit, as the first
    products do at dim 8 from degree 127 and at dim 16 from degree 15.
    A stack of m/d matrices per coefficient (m > d) multiplies each of
    them by g in the same matmuls.
    """
    n1, m, d = fa.shape
    if ga.shape[1] == 1 < d:
        return _block_product(fa.reshape(n1, m * d, 1), ga).reshape(n1, m, d)
    c = min(n1, _rows_below_limit(m * d * n1 * d))
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
        acc[:, j * c * d :] += _matmul(group, strip[:, : (n1 - j * c) * d])
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
    output is one more product, of the powers with g's coefficients: at
    dim d > 1 it is made in blocks of rows of powers.T, each below
    _MATMUL_LIMIT multiply-adds (_matmul, like every doubling matmul), so
    OpenBLAS keeps it on one thread; at dim 8 that is 2 blocks at N = 38
    and 3 at N = 46.  For a 1x1 g it is an einsum, since numpy runs a
    one-column matmul as a zgemv, which OpenBLAS hands to a second
    thread from 64x64 entries on.

    No growth class holds for every g and phi; give the result one, as
    MatrixSeries(compose(g, phi).coeffs, growth), where the structure of
    g and phi proves it (harness._subordinate).
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
        _matmul(powers[1 : top - m + 1, 1 : size + 1], window[:size, :size].copy(),
                out=powers[m + 1 : top + 1, m + 1 :])
        m = top
    gc = g.coeffs[: n + 1].reshape(n + 1, -1)
    out = np.einsum("kn,kj->nj", powers, gc) if g.dim == 1 else _matmul(powers.T, gc)
    return MatrixSeries(out.reshape(n + 1, g.dim, g.dim), None)


def derivative(f: MatrixSeries) -> MatrixSeries:
    """Termwise derivative; degree drops by one (constants map to 0).

    If ||f_n|| <= C (n+1)^s for every n, then ||f'_j|| = (j+1) ||f_{j+1}||
    <= (j+1) C (j+2)^s <= 2^s C (j+1)^(s+1), as j + 2 <= 2 (j+1): the
    derivative is in the class (2^s C, s + 1).  At degree 0 f'_0 = f_1
    is not stored, and the zero constant returned carries no class.
    """
    if f.degree == 0:
        return MatrixSeries(np.zeros((1, f.dim, f.dim), dtype=np.complex128), None)
    n = np.arange(1, f.degree + 1, dtype=np.float64)
    growth = None if f.growth is None else (2.0 ** f.growth[1] * f.growth[0], f.growth[1] + 1)
    return MatrixSeries(f.coeffs[1:] * n[:, None, None], growth)


@dataclasses.dataclass(frozen=True, eq=False)
class Majorant:
    """Coefficient-norm profile of a series or a layered function: one
    (norms, growth) pair per layer, norms = ||A_0||..||A_N|| of the
    layer and growth its class or None.  A series is its one layer."""

    layers: tuple

    def __post_init__(self):
        layers = []
        for norms, growth in self.layers:
            v = np.array(norms, dtype=np.float64)
            if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError("majorant norms must be a nonnegative float vector")
            v.setflags(write=False)
            layers.append((v, _growth(growth)))
        if not layers:
            raise ValueError("a majorant needs at least one layer")
        object.__setattr__(self, "layers", tuple(layers))

    def bohr(self, radii) -> tuple:
        """(lo, hi, certified): enclosures of sum_l r^l * (Bohr sum of
        layer l) at every radius of a grid in [0, 1), from _BohrGrid's
        one formula; certified when every layer has a growth class.  Each
        radius gets the same bits whatever grid it sits in."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            lo, hi, certified = _BohrGrid(radii).layered(self.layers)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NumericalError("a Bohr sum is not finite: it overflows, or a radius is "
                                 "too close to 1 for a growth class's tail bound")
        return lo, hi, certified


class _BohrGrid:
    """A grid of radii in [0, 1) and the one formula for Bohr sums on it.

    The Vandermonde table [r^n] for N + 1 norms, and the allowance of a
    class (C, s) past them, are computed at the first sum that needs them
    and kept, so a campaign that sums many series on one grid computes
    each once.  A campaign clears the allowances, in tails, after each
    block of trials (harness._margin).
    """

    def __init__(self, radii):
        r = np.asarray(radii, dtype=np.float64)
        if r.ndim != 1:
            raise ValueError("radii must form a one-dimensional array")
        outside = r[~((r >= 0.0) & (r < 1.0))]
        if outside.size:
            raise ValueError(f"radius must lie in [0, 1), got {float(outside[0])}")
        self.r = r
        self._tables = {}  # Vandermonde tables by N + 1
        self.tails = {}  # allowances by (N + 1, C, s)

    def bohr(self, norms: np.ndarray, growth: tuple | None) -> tuple:
        """(lo, hi) of sum_n norms[n] r^n at every radius.

        lo is one matvec of the Vandermonde table with the norms; hi adds
        the allowance tail(N + 1, C, s) of a growth class (C, s) when one
        is present and equals lo otherwise.  The allowance vanishes at
        r = 0, where the truncated value is exact regardless.  The matvec
        is an einsum rather than BLAS, whose summation order depends on
        the number of rows, so each radius gets the same bits whatever
        grid it sits in.
        """
        size = norms.size
        table = self._tables.get(size)
        if table is None:
            table = self._tables[size] = self.r[:, None] ** np.arange(size)
        lo = np.einsum("rn,n->r", table, norms)
        if growth is None:
            return lo, lo
        key = (size, *growth)
        tail = self.tails.get(key)
        if tail is None:
            tail = self.tails[key] = self.tail(size, *growth)
        return lo, lo + tail

    def tail(self, size, bound: float, exponent: float = 0) -> np.ndarray:
        """The tail allowance at every radius: what the terms past size
        norms can add when norm n is at most C (n+1)^s, for the growth
        class (C, s) = (bound, exponent), so term n at most b_n = C
        (n+1)^s r^n.  The ratio q_n = r ((n+2)/(n+1))^s of consecutive
        bounds decreases in n to r, so where q = q_size < 1 the terms
        sum to at most the geometric series b_size / (1 - q); at s = 0
        both powers are 1.0 and this is C r^size / (1 - r), the allowance
        of a constant bound C, bit for bit.  Where q >= 1 the bounds are
        summed one by one up to the first m with q_m <= (1 + r) / 2, and
        b_m / (1 - q_m), at most 2 b_m / (1 - r), is added (a q_m just
        below 1 would make that factor large).  The sum is inf if m lies
        more than _MAX_SUMMED_BOUNDS past size (r within about 2 s / 2^12
        of 1).  size may be an array of sizes that broadcasts against the
        grid's radii.
        """
        first = bound * (size + 1.0) ** exponent * self.r**size
        ratio = self.r * ((size + 2.0) / (size + 1.0)) ** exponent
        tail = np.divide(first, 1.0 - ratio, out=np.full(np.shape(first), np.inf),
                         where=ratio < 1.0)
        for i in zip(*np.nonzero(ratio >= 1.0)):
            n, r = (np.broadcast_to(a, tail.shape)[i] for a in (size, self.r))
            n = n + np.arange(_MAX_SUMMED_BOUNDS + 1.0)
            q = r * ((n + 2.0) / (n + 1.0)) ** exponent
            below = q <= (1.0 + r) / 2.0
            m = int(np.argmax(below))
            b = bound * (n[: m + 1] + 1.0) ** exponent * r ** n[: m + 1]
            tail[i] = b[:m].sum() + b[m] / (1.0 - q[m]) if below[m] else math.inf
        return tail

    def layered(self, layers) -> tuple:
        """(lo, hi, certified) of sum_l r^l * (Bohr sum of layer l) at
        every radius, for layers given as (norms, growth) pairs: summed
        layer by layer, certified when every layer has a growth class."""
        lo = hi = 0.0
        certified = True
        for l, (norms, growth) in enumerate(layers):
            layer_lo, layer_hi = self.bohr(norms, growth)
            lo, hi = lo + self.r**l * layer_lo, hi + self.r**l * layer_hi
            certified = certified and growth is not None
        return lo, hi, certified


def _layers(fn) -> tuple:
    """The layers of fn: a MatrixSeries is its one layer, a layered
    function (zoo.PolyanalyticFn) has its components."""
    return (fn,) if isinstance(fn, MatrixSeries) else fn.components


def majorant(fn) -> Majorant:
    """Coefficient-norm profile of a MatrixSeries or a PolyanalyticFn
    (one batched eigensolve per layer)."""
    return Majorant(tuple((op_norms(f.coeffs), f.growth) for f in _layers(fn)))
