"""Dense complex matrices used as finite-dimensional operators.

Matrices are plain numpy arrays of shape (d, d) and dtype complex128.
Everything here is pure: arguments are never mutated.

Spectral quantities go through the Hermitian eigensolver on the Gram
matrix a*a rather than an SVD.  eigvalsh is deterministic for identical
input, which keeps campaign reports reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalError",
    "as_matrix",
    "op_norm",
    "op_norms",
    "abs_op",
]


class NumericalError(RuntimeError):
    """A numerical step failed: a dense eigensolver did not converge, or
    a campaign margin overflowed."""


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix, validating as we go.

    Rejects non-square shapes and non-finite entries (NaN or infinity
    in either the real or imaginary part).
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix in a (..., d, d) stack.

    The 1x1 case short-circuits to plain absolute value.  Otherwise the
    top eigenvalue of the Gram matrix is clamped at zero before the
    square root so eigenvalue noise of order -1e-16 cannot produce NaN.
    A matrix whose largest entry (real or imaginary part) lies outside
    [2^-400, 2^400], where its Gram matrix would overflow or underflow,
    is first scaled by a power of two (exact) and its norm scaled back.
    The largest entry is taken only for matrices a screen flags: it is at
    most the entry sum s of |Re| + |Im| and s is at most 2 d^2 times it
    (rounded s too, the terms being nonnegative), so every matrix outside
    has s > 2^400 or 0 < s < d^2 2^-398.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim < 2 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    d = stack.shape[-1]
    if d == 1:
        return np.abs(stack[..., 0, 0])
    s = np.einsum("...ij->...", np.abs(np.ascontiguousarray(stack).view(np.float64)))
    flagged = (s > 2.0**400) | ((s > 0.0) & (s < d * d * 2.0**-398))
    shift = None
    if flagged.any():
        sub = stack[flagged]
        peak = np.maximum(np.abs(sub.real), np.abs(sub.imag)).max(axis=(-2, -1))
        outside = (peak > 2.0**400) | ((peak > 0.0) & (peak < 2.0**-400))
        # the largest entry moves into [1/2, 1), a subnormal one above 2^-75
        shift = np.zeros(flagged.shape, dtype=int)
        shift[flagged] = np.where(outside, np.maximum(np.frexp(peak)[1], -1000), 0)
        stack = stack.copy()
        stack[flagged] = sub * np.ldexp(1.0, -shift[flagged])[:, None, None]
    gram = np.conj(np.swapaxes(stack, -1, -2)) @ stack
    try:
        eigs = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on Gram matrices: {exc}") from exc
    norms = np.sqrt(np.maximum(eigs[..., -1], 0.0))
    return norms if shift is None else np.ldexp(norms, shift)


def op_norm(a) -> float:
    """Operator (spectral) norm of a single matrix."""
    return float(op_norms(as_matrix(a)[np.newaxis])[0])


def abs_op(a) -> np.ndarray:
    """Operator absolute value (a*a)^(1/2).

    Diagonalizes the Hermitized Gram matrix, clamps small negative
    eigenvalues at zero, and rebuilds.  The result is re-Hermitized so
    it can be fed straight back into eigh-based code.
    """
    m = as_matrix(a)
    gram = m.conj().T @ m
    gram = 0.5 * (gram + gram.conj().T)
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed computing |A| for a {m.shape[0]}x{m.shape[0]} matrix: {exc}"
        ) from exc
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return 0.5 * (root + root.conj().T)
