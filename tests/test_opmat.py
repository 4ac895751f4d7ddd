"""Matrix layer: norms and absolute values."""

import numpy as np
import pytest

from bohrlab.opmat import (
    abs_op,
    as_matrix,
    op_norm,
    op_norms,
)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_identity_norm_is_one():
    for d in range(1, 6):
        assert op_norm(np.eye(d)) == 1.0


def test_norm_known_values():
    # largest singular value of [[0,2],[0,0]] is 2
    assert op_norm([[0, 2], [0, 0]]) == pytest.approx(2.0, abs=1e-14)
    assert op_norm(np.diag([1.0, 3.0j])) == pytest.approx(3.0, abs=1e-14)
    assert op_norm([[2.5j]]) == pytest.approx(2.5, abs=0)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200, 1e300, 5e-324])
def test_norm_outside_the_gram_range(scale):
    # the Gram matrix squares the entries, which would underflow or
    # overflow here; the norms are the closed forms 3 s and 5 s
    for matrix, norm in ((np.diag([1, 3]), 3), (np.array([[3, 4j], [0, 0]]), 5)):
        assert op_norm(scale * matrix) == pytest.approx(norm * scale, rel=1e-15, abs=0)


def test_rescaling_leaves_the_rest_of_a_stack_alone():
    rng = np.random.default_rng(7)
    stack = np.array([random_matrix(rng, 3) for _ in range(4)])
    norms = op_norms(stack)
    stack[1] *= 1e250
    stack[2] *= 1e-250
    mixed = op_norms(stack)
    assert mixed[0] == norms[0] and mixed[3] == norms[3]
    assert mixed[1] == pytest.approx(1e250 * norms[1], rel=1e-14)
    assert mixed[2] == pytest.approx(1e-250 * norms[2], rel=1e-14, abs=0)


def op_norms_scaling_every_matrix(stack):
    """op_norms with the largest entry of every matrix taken and the
    whole stack scaled (by 1 where in range): the reference op_norms'
    screened rescaling must equal bit for bit."""
    stack = np.asarray(stack, dtype=np.complex128)
    peak = np.maximum(np.abs(stack.real), np.abs(stack.imag)).max(axis=(-2, -1))
    outside = (peak > 2.0**400) | ((peak > 0.0) & (peak < 2.0**-400))
    shift = None
    if outside.any():
        shift = np.where(outside, np.maximum(np.frexp(peak)[1], -1000), 0)
        stack = stack * np.ldexp(1.0, -shift)[..., None, None]
    eigs = np.linalg.eigvalsh(np.conj(np.swapaxes(stack, -1, -2)) @ stack)
    norms = np.sqrt(np.maximum(eigs[..., -1], 0.0))
    return norms if shift is None else np.ldexp(norms, shift)


# in range, zero, subnormal, far outside, just outside, and in range but
# flagged by the entry-sum screen
SCALES = (1.0, 0.0, 5e-324, 1e-310, 1e-200, 1e200, 1e-130, 1e130,
          2.0**-401, 2.0**401, 2.0**-399, 2.0**399, 2.0**-400, 2.0**400)


@pytest.mark.parametrize("d", (2, 3, 8))
def test_screened_rescaling_is_the_whole_stack_formula(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        size = int(rng.integers(1, 40))
        stack = np.array([random_matrix(rng, d) for _ in range(size)])
        stack *= rng.choice(SCALES, size=size)[:, None, None]
        for view in (stack, stack.transpose(0, 2, 1), stack[::2], stack[0], stack[None]):
            assert np.array_equal(op_norms(view), op_norms_scaling_every_matrix(view))


def test_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        op_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        op_norm([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        op_norm([[np.inf]])


def test_abs_op_known_values():
    # |A| for A = [[0,2],[0,0]] is diag(0, 2)
    assert np.allclose(abs_op([[0, 2], [0, 0]]), np.diag([0.0, 2.0]), atol=1e-13)
    # |alpha I| = |alpha| I
    assert np.allclose(abs_op(-0.5j * np.eye(3)), 0.5 * np.eye(3), atol=1e-14)
    # unitaries have |U| = I
    c, s = np.cos(0.7), np.sin(0.7)
    u = np.array([[c, -s], [s, c]])
    assert np.allclose(abs_op(u), np.eye(2), atol=1e-13)


def test_norm_invariants_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a, b = random_matrix(rng, d), random_matrix(rng, d)
        na, nb = op_norm(a), op_norm(b)
        assert op_norm(a + b) <= na + nb + 1e-10
        assert op_norm(a @ b) <= na * nb + 1e-10
        assert op_norm(a.conj().T) == pytest.approx(na, abs=1e-10)
        assert op_norm(abs_op(a)) == pytest.approx(na, abs=1e-10)


def test_abs_op_is_psd_square_root_of_gram():
    rng = np.random.default_rng(102)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        a = random_matrix(rng, d)
        m = abs_op(a)
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() >= -1e-10
        assert np.allclose(m @ m, a.conj().T @ a, atol=1e-9)


def test_op_norms_matches_scalar_path():
    rng = np.random.default_rng(103)
    stack = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
    batched = op_norms(stack)
    for i in range(20):
        assert batched[i] == pytest.approx(op_norm(stack[i]), abs=1e-12)
